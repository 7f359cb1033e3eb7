//! In-memory metrics aggregation: counters + log₂ latency histograms,
//! with Prometheus text exposition and a JSON snapshot.
//!
//! [`Metrics`] is a [`Recorder`]: install it (alone or inside a
//! `MultiRecorder`) and every runtime event updates a small set of
//! counters and histograms under one mutex. The bench binaries write
//! [`Metrics::json_string`] as a machine-readable sidecar next to their
//! human-readable tables; [`Metrics::prometheus_text`] renders the same
//! state in the Prometheus text exposition format for scraping.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::sync::PoisonError;

use crate::event::{EventKind, ObsEvent};
use crate::json::Json;
use crate::recorder::Recorder;
use crate::timer::Phase;

/// Number of log₂ buckets: bucket `i` counts values `v` with
/// `bucket_index(v) == i`, i.e. `v == 0` → 0 and otherwise
/// `i == 64 - v.leading_zeros()` (so bucket upper bound is `2^i - 1`).
const BUCKETS: usize = 65;

/// A log₂ histogram of `u64` observations.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    sum: u128,
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            sum: 0,
            count: 0,
            max: 0,
        }
    }
}

fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.sum += u128::from(v);
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in 0..=1) with sub-bucket linear
    /// interpolation: the rank is located within its log₂ bucket and the
    /// bucket's value range `[lower, upper]` is interpolated linearly,
    /// so p50/p99 stay meaningful even where buckets are coarse relative
    /// to the distribution (sub-microsecond phases live in buckets whose
    /// upper bound alone would overstate them by up to 2×).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = bucket_lower_bound(i);
                let upper = bucket_upper_bound(i).min(self.max);
                let frac = (rank - seen) as f64 / *c as f64;
                let v = lower as f64 + frac * (upper.saturating_sub(lower)) as f64;
                return (v.round() as u64).min(self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if *c > 0 {
                out.push((bucket_upper_bound(i), cum));
            }
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::num(self.sum as f64)),
            ("mean", Json::num(self.mean())),
            ("p50", Json::from(self.quantile(0.5))),
            ("p90", Json::from(self.quantile(0.9))),
            ("p99", Json::from(self.quantile(0.99))),
            ("max", Json::from(self.max)),
        ])
    }
}

/// Inclusive upper bound of bucket `i` (`0`, `1`, `3`, `7`, …).
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of bucket `i` (`0`, `1`, `2`, `4`, `8`, …).
fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// One [`Histogram`] per [`Phase`], indexed by [`Phase::index`]. The
/// aggregation target of every [`EventKind::PhaseTimed`] event.
#[derive(Debug, Clone)]
pub struct PhaseHistograms([Histogram; Phase::COUNT]);

impl Default for PhaseHistograms {
    fn default() -> Self {
        PhaseHistograms(std::array::from_fn(|_| Histogram::default()))
    }
}

impl PhaseHistograms {
    /// The histogram for `phase`.
    pub fn get(&self, phase: Phase) -> &Histogram {
        &self.0[phase.index()]
    }

    /// Total observations across all phases.
    pub fn total_count(&self) -> u64 {
        self.0.iter().map(Histogram::count).sum()
    }

    fn observe(&mut self, phase: Phase, nanos: u64) {
        self.0[phase.index()].observe(nanos);
    }
}

/// Escape a Prometheus label *value*: backslash, double-quote and
/// newline must be backslash-escaped per the text exposition format.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One sample parsed from a Prometheus text exposition: the metric
/// name, the raw label block (`""` or `{k="v",…}` verbatim), and the
/// value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (legality-checked by [`parse_exposition`]).
    pub name: String,
    /// The label block exactly as serialized, empty when unlabelled.
    pub labels: String,
    /// The sample value.
    pub value: f64,
}

/// Parse a Prometheus text exposition into its samples, validating
/// metric-name legality (`[a-zA-Z_:][a-zA-Z0-9_:]*`) and basic line
/// shape. Comment (`#`) and blank lines are skipped. This is the
/// scrape side of the scrape → parse → re-emit round-trip tests and of
/// the live-endpoint smoke checks.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line:?}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value {value:?}", lineno + 1))?;
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                if !rest.ends_with('}') {
                    return Err(format!("line {}: unterminated label block", lineno + 1));
                }
                (n, format!("{{{rest}"))
            }
            None => (series, String::new()),
        };
        let legal_start = |c: char| c.is_ascii_alphabetic() || c == '_' || c == ':';
        let legal = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if !name.starts_with(legal_start) || !name.chars().all(legal) {
            return Err(format!("line {}: illegal metric name {name:?}", lineno + 1));
        }
        out.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(out)
}

/// Declares [`MetricsSnapshot`] from one list: each `u64` counter with
/// its JSON path (`group.key`, or a top-level `key`) and its Prometheus
/// series (a name, optionally with one label; a name not ending in
/// `_total` is a gauge), then the snapshot's other fields.
macro_rules! snapshot {
    (
        $(#[$meta:meta])*
        pub struct MetricsSnapshot {
            $( $(#[$cmeta:meta])* $counter:ident: $json:literal $(=> $series:literal)?, )*
            ;
            $( $(#[$fmeta:meta])* pub $field:ident: $T:ty, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default)]
        pub struct MetricsSnapshot {
            $( $(#[$cmeta])* pub $counter: u64, )*
            $( $(#[$fmeta])* pub $field: $T, )*
        }

        impl MetricsSnapshot {
            /// Every counter as `(JSON path, Prometheus series, value)`,
            /// in list order.
            fn counters(
                &self,
            ) -> impl Iterator<Item = (&'static str, Option<&'static str>, u64)> + '_ {
                [$( ($json, None $(.or(Some($series)))?, self.$counter), )*].into_iter()
            }
        }
    };
}

snapshot! {
    /// The aggregated state. Plain data: cheap to clone out as a snapshot.
    pub struct MetricsSnapshot {
        // -- task lifecycle --------------------------------------------
        tasks_spawned: "tasks.spawned" => "sm_tasks_spawned_total",
        tasks_completed: "tasks.completed" => "sm_tasks_completed_total",
        tasks_aborted: "tasks.aborted" => "sm_tasks_aborted_total",
        clones_created: "tasks.clones_created" => "sm_clones_created_total",
        // -- merges ----------------------------------------------------
        merges_started: "merges.started" => "sm_merges_started_total",
        merges_finished: "merges.finished" => "sm_merges_finished_total",
        merges_rejected: "merges.rejected" => "sm_merges_rejected_total",
        /// Sum of child ops brought to all merges.
        ops_child_total: "merges.ops_child_total" => "sm_merge_ops_child_total",
        /// Sum of ops actually applied after transformation.
        ops_applied_total: "merges.ops_applied_total" => "sm_merge_ops_applied_total",
        /// Sum of child ops after pre-rebase compaction.
        ops_child_compacted_total:
            "merges.ops_child_compacted_total" => "sm_merge_ops_child_compacted_total",
        /// Sum of committed ops the merges transformed against (raw).
        ops_committed_total: "merges.ops_committed_total" => "sm_merge_ops_committed_total",
        /// Sum of committed ops after pre-rebase compaction.
        ops_committed_compacted_total:
            "merges.ops_committed_compacted_total" => "sm_merge_ops_committed_compacted_total",
        /// Sum of transformation-grid cells actually paid.
        grid_cells_total: "merges.grid_cells_total" => "sm_merge_grid_cells_total",
        /// Per-field rebases that took the O(m+n) delta (span-set) path.
        /// It and the next counter are one labelled family, so dashboards
        /// plot the delta-path hit rate directly.
        rebases_delta_total:
            "merges.rebases_delta_total" => "sm_merge_rebases_total{path=\"delta\"}",
        /// Per-field rebases that used the pairwise transformation grid.
        rebases_grid_total: "merges.rebases_grid_total" => "sm_merge_rebases_total{path=\"grid\"}",
        /// Sum of normalized spans swept by delta-path rebases.
        delta_spans_total: "merges.delta_spans_total" => "sm_merge_delta_spans_total",
        /// Delta-path rebases that continued from a merge memo instead of
        /// refolding the committed slice.
        merge_memo_hits: "merges.memo_hits" => "sm_merge_memo_hits_total",
        // -- history GC ------------------------------------------------
        /// Fork-watermark GC runs that dropped at least one operation.
        log_truncations: "gc.log_truncations" => "sm_log_truncations_total",
        /// Total committed-log operations dropped by the GC.
        log_truncated_ops: "gc.log_truncated_ops" => "sm_log_truncated_ops_total",
        // -- syncs -----------------------------------------------------
        syncs: "syncs.total" => "sm_syncs_total",
        syncs_rejected: "syncs.rejected" => "sm_syncs_rejected_total",
        // -- pool ------------------------------------------------------
        workers_started: "pool.workers_started" => "sm_pool_workers_started_total",
        workers_retired: "pool.workers_retired" => "sm_pool_workers_retired_total",
        workers_live: "pool.workers_live" => "sm_pool_workers_live",
        workers_peak: "pool.workers_peak" => "sm_pool_workers_peak",
        // -- durable store ---------------------------------------------
        /// Commit records appended to the write-ahead log.
        wal_appends: "store.wal_appends" => "sm_wal_appends_total",
        /// Total framed bytes appended to the WAL.
        wal_bytes: "store.wal_bytes" => "sm_wal_bytes_total",
        /// WAL appends that were followed by an fsync.
        wal_fsyncs: "store.wal_fsyncs" => "sm_wal_fsyncs_total",
        /// Full-state snapshots persisted.
        snapshots: "store.snapshots" => "sm_snapshots_total",
        /// Total serialized snapshot bytes.
        snapshot_bytes: "store.snapshot_bytes" => "sm_snapshot_bytes_total",
        /// WAL segments deleted by the retention policy.
        wal_segments_pruned: "store.wal_segments_pruned" => "sm_wal_segments_pruned_total",
        /// Crash recoveries performed.
        recoveries: "store.recoveries" => "sm_recoveries_total",
        /// WAL segments scanned by crash recovery (the name dates from when
        /// the scan was threaded; it is part of the exported metric names).
        recovery_segments_parallel:
            "store.recovery_segments_parallel" => "sm_recovery_segments_parallel_total",
        /// Total operations replayed from journal suffixes during recovery.
        recovery_replayed_ops: "store.recovery_replayed_ops" => "sm_recovery_replayed_ops_total",
        /// Crash recoveries that failed closed (corruption, digest
        /// mismatch) — an anomaly counter a production alert should watch.
        recovery_failures: "store.recovery_failures" => "sm_recovery_failures_total",
        // -- session server --------------------------------------------
        /// Sessions created (first attach opened them).
        sessions_opened: "sessions.opened" => "sm_sessions_opened_total",
        /// Client attaches (subscriptions), including re-attaches.
        sessions_attached: "sessions.attached" => "sm_sessions_attached_total",
        /// Idle sessions evicted to store snapshots (exported with its
        /// per-shard series, in `prometheus_text`).
        sessions_evicted: "sessions.evicted",
        /// Evicted sessions rehydrated from their store on re-attach.
        sessions_rehydrated: "sessions.rehydrated" => "sm_sessions_rehydrated_total",
        /// Journal-suffix operations replayed by rehydrations.
        session_rehydrate_replayed_ops:
            "sessions.rehydrate_replayed_ops" => "sm_session_rehydrate_replayed_ops_total",
        /// Session commits accepted and broadcast.
        session_commits: "sessions.commits" => "sm_session_commits_total",
        /// Operations applied by accepted session commits.
        session_commit_ops: "sessions.commit_ops" => "sm_session_commit_ops_total",
        /// Subscribers disconnected for falling behind their outbound queue.
        slow_consumers_dropped:
            "sessions.slow_consumers_dropped" => "sm_slow_consumers_dropped_total",
        // -- marks -----------------------------------------------------
        marks: "marks" => "sm_marks_total",
        ;
        /// Live (in-memory) sessions per shard — the per-shard
        /// `sm_sessions_active` gauge family.
        pub sessions_active_by_shard: BTreeMap<u64, u64>,
        /// Evictions per shard — the per-shard `sm_sessions_evicted_total`
        /// counter family.
        pub sessions_evicted_by_shard: BTreeMap<u64, u64>,
        // -- histograms ------------------------------------------------
        pub spawn_cost_nanos: Histogram,
        pub merge_latency_nanos: Histogram,
        pub merge_child_ops: Histogram,
        pub oplog_len: Histogram,
        pub sync_blocked_nanos: Histogram,
        pub fsync_nanos: Histogram,
        pub snapshot_nanos: Histogram,
        /// Per-phase hot-path latency histograms (see [`Phase`]).
        pub phase_nanos: PhaseHistograms,
    }
}

impl MetricsSnapshot {
    fn update(&mut self, event: &ObsEvent) {
        match &event.kind {
            EventKind::TaskSpawned { spawn_nanos } => {
                self.tasks_spawned += 1;
                self.spawn_cost_nanos.observe(*spawn_nanos);
            }
            EventKind::TaskCompleted => self.tasks_completed += 1,
            EventKind::TaskAborted { .. } => self.tasks_aborted += 1,
            EventKind::MergeStarted { .. } => self.merges_started += 1,
            EventKind::MergeFinished {
                ops,
                oplog_len,
                merge_nanos,
                ..
            } => {
                self.merges_finished += 1;
                self.ops_child_total += ops.child_ops as u64;
                self.ops_applied_total += ops.applied_ops as u64;
                self.ops_child_compacted_total += ops.child_ops_compacted as u64;
                self.ops_committed_total += ops.committed_ops as u64;
                self.ops_committed_compacted_total += ops.committed_ops_compacted as u64;
                self.grid_cells_total += ops.grid_cells as u64;
                self.rebases_delta_total += ops.delta_rebases as u64;
                self.rebases_grid_total += ops.grid_rebases as u64;
                self.delta_spans_total += ops.delta_spans as u64;
                self.merge_memo_hits += ops.memo_hits as u64;
                self.merge_latency_nanos.observe(*merge_nanos);
                self.merge_child_ops.observe(ops.child_ops as u64);
                self.oplog_len.observe(*oplog_len as u64);
            }
            EventKind::MergeRejected { .. } => self.merges_rejected += 1,
            EventKind::SyncBlocked => self.syncs += 1,
            EventKind::SyncResumed {
                blocked_nanos,
                accepted,
            } => {
                self.sync_blocked_nanos.observe(*blocked_nanos);
                if !accepted {
                    self.syncs_rejected += 1;
                }
            }
            EventKind::CloneCreated { .. } => self.clones_created += 1,
            EventKind::WorkerStarted { .. } => {
                self.workers_started += 1;
                self.workers_live += 1;
                self.workers_peak = self.workers_peak.max(self.workers_live);
            }
            EventKind::WorkerRetired { .. } => {
                self.workers_retired += 1;
                self.workers_live = self.workers_live.saturating_sub(1);
            }
            EventKind::LogTruncated { dropped } => {
                self.log_truncations += 1;
                self.log_truncated_ops += *dropped as u64;
            }
            EventKind::WalAppended {
                bytes,
                fsynced,
                fsync_nanos,
            } => {
                self.wal_appends += 1;
                self.wal_bytes += *bytes as u64;
                if *fsynced {
                    self.wal_fsyncs += 1;
                    self.fsync_nanos.observe(*fsync_nanos);
                }
            }
            EventKind::SnapshotTaken {
                bytes,
                snapshot_nanos,
            } => {
                self.snapshots += 1;
                self.snapshot_bytes += *bytes as u64;
                self.snapshot_nanos.observe(*snapshot_nanos);
            }
            EventKind::WalSegmentsPruned { segments, .. } => {
                self.wal_segments_pruned += *segments as u64;
            }
            EventKind::RecoverySegmentsScanned { segments } => {
                self.recovery_segments_parallel += *segments as u64;
            }
            EventKind::RecoveryReplayed { replayed_ops, .. } => {
                self.recoveries += 1;
                self.recovery_replayed_ops += *replayed_ops as u64;
            }
            EventKind::RecoveryFailed { .. } => self.recovery_failures += 1,
            EventKind::PhaseTimed { phase, nanos } => {
                self.phase_nanos.observe(*phase, *nanos);
            }
            EventKind::Mark { .. } => self.marks += 1,
            EventKind::SessionOpened { shard, .. } => {
                self.sessions_opened += 1;
                *self.sessions_active_by_shard.entry(*shard).or_default() += 1;
            }
            EventKind::SessionAttached { .. } => self.sessions_attached += 1,
            EventKind::SessionEvicted { shard, .. } => {
                self.sessions_evicted += 1;
                *self.sessions_evicted_by_shard.entry(*shard).or_default() += 1;
                let active = self.sessions_active_by_shard.entry(*shard).or_default();
                *active = active.saturating_sub(1);
            }
            EventKind::SessionRehydrated {
                shard,
                replayed_ops,
                ..
            } => {
                self.sessions_rehydrated += 1;
                self.session_rehydrate_replayed_ops += *replayed_ops as u64;
                *self.sessions_active_by_shard.entry(*shard).or_default() += 1;
            }
            EventKind::SessionCommitted { ops, .. } => {
                self.session_commits += 1;
                self.session_commit_ops += *ops as u64;
            }
            EventKind::SlowConsumerDropped { .. } => self.slow_consumers_dropped += 1,
        }
    }

    /// Total live sessions across all shards.
    pub fn sessions_active(&self) -> u64 {
        self.sessions_active_by_shard.values().sum()
    }

    /// The histograms, by JSON key; each exports to Prometheus as
    /// `sm_<key>`.
    fn histograms(&self) -> [(&'static str, &Histogram); 7] {
        [
            ("spawn_cost_nanos", &self.spawn_cost_nanos),
            ("merge_latency_nanos", &self.merge_latency_nanos),
            ("merge_child_ops", &self.merge_child_ops),
            ("oplog_len", &self.oplog_len),
            ("sync_blocked_nanos", &self.sync_blocked_nanos),
            ("fsync_nanos", &self.fsync_nanos),
            ("snapshot_nanos", &self.snapshot_nanos),
        ]
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut doc = Vec::new();
        for (path, _, value) in self.counters() {
            insert_path(&mut doc, path, Json::from(value));
        }
        insert_path(
            &mut doc,
            "sessions.active",
            Json::from(self.sessions_active()),
        );
        insert_path(
            &mut doc,
            "sessions.active_by_shard",
            Json::Obj(
                self.sessions_active_by_shard
                    .iter()
                    .map(|(shard, n)| (shard.to_string(), Json::from(*n)))
                    .collect(),
            ),
        );
        doc.push((
            "phases".to_string(),
            Json::Obj(
                Phase::ALL
                    .iter()
                    .map(|p| (p.name().to_string(), self.phase_nanos.get(*p).to_json()))
                    .collect(),
            ),
        ));
        doc.push((
            "histograms".to_string(),
            Json::Obj(
                self.histograms()
                    .iter()
                    .map(|(key, h)| (key.to_string(), h.to_json()))
                    .collect(),
            ),
        ));
        Json::Obj(doc)
    }

    /// Render in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut family = "";
        for (_, series, value) in self.counters() {
            let Some(series) = series else { continue };
            let name = series.split_once('{').map_or(series, |(name, _)| name);
            if name != family {
                family = name;
                out.push_str(&format!("# TYPE {name} {}\n", metric_type(name)));
            }
            out.push_str(&format!("{series} {value}\n"));
        }
        // Session-server shard families: the unlabelled series is the
        // all-shard total, then one series per shard, so dashboards see
        // routing balance directly.
        for (name, total, by_shard) in [
            (
                "sm_sessions_active",
                self.sessions_active(),
                &self.sessions_active_by_shard,
            ),
            (
                "sm_sessions_evicted_total",
                self.sessions_evicted,
                &self.sessions_evicted_by_shard,
            ),
        ] {
            out.push_str(&format!(
                "# TYPE {name} {}\n{name} {total}\n",
                metric_type(name)
            ));
            for (shard, n) in by_shard {
                out.push_str(&format!("{name}{{shard=\"{shard}\"}} {n}\n"));
            }
        }
        for (key, h) in self.histograms() {
            let name = format!("sm_{key}");
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (le, cum) in h.cumulative_buckets() {
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        // Per-phase hot-path latency: one histogram family labelled by
        // phase. Count/sum series are emitted for every phase (so a
        // scraper sees the full taxonomy); buckets only where populated.
        out.push_str("# TYPE sm_phase_nanos histogram\n");
        for phase in Phase::ALL {
            let h = self.phase_nanos.get(phase);
            let label = escape_label(phase.name());
            for (le, cum) in h.cumulative_buckets() {
                out.push_str(&format!(
                    "sm_phase_nanos_bucket{{phase=\"{label}\",le=\"{le}\"}} {cum}\n"
                ));
            }
            out.push_str(&format!(
                "sm_phase_nanos_bucket{{phase=\"{label}\",le=\"+Inf\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "sm_phase_nanos_sum{{phase=\"{label}\"}} {}\n",
                h.sum()
            ));
            out.push_str(&format!(
                "sm_phase_nanos_count{{phase=\"{label}\"}} {}\n",
                h.count()
            ));
        }
        out
    }
}

/// A Prometheus family's type: counters end in `_total`, the rest are
/// gauges.
fn metric_type(name: &str) -> &'static str {
    if name.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    }
}

/// Set `path` (`key`, or `group.key`) in the object fields `doc`,
/// creating the group object on first use.
fn insert_path(doc: &mut Vec<(String, Json)>, path: &str, value: Json) {
    let Some((group, key)) = path.split_once('.') else {
        doc.push((path.to_string(), value));
        return;
    };
    let at = match doc.iter().position(|(k, _)| k == group) {
        Some(at) => at,
        None => {
            doc.push((group.to_string(), Json::Obj(Vec::new())));
            doc.len() - 1
        }
    };
    doc[at].1.set(key, value);
}

/// A [`Recorder`] aggregating the event stream into [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct Metrics {
    state: Mutex<MetricsSnapshot>,
}

impl Metrics {
    /// An empty aggregator.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Copy out the current aggregate state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Current state in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.snapshot().prometheus_text()
    }

    /// Current state as a JSON document string.
    pub fn json_string(&self) -> String {
        self.snapshot().to_json().to_string()
    }
}

impl Recorder for Metrics {
    fn record(&self, event: &ObsEvent) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .update(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MergeOpStats, TaskPath};
    use std::time::Instant;

    fn ev(kind: EventKind) -> ObsEvent {
        ObsEvent {
            at: Instant::now(),
            task: TaskPath::root(),
            kind,
        }
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1107);
        assert_eq!(h.max(), 1000);
        assert!(h.quantile(0.5) <= 3);
        assert_eq!(h.quantile(1.0), 1000);
        let buckets = h.cumulative_buckets();
        // Cumulative counts are monotone and end at the total.
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(buckets.last().unwrap().1, 7);
    }

    #[test]
    fn aggregates_task_and_merge_events() {
        let m = Metrics::new();
        m.record(&ev(EventKind::TaskSpawned { spawn_nanos: 500 }));
        m.record(&ev(EventKind::TaskSpawned { spawn_nanos: 700 }));
        m.record(&ev(EventKind::MergeStarted {
            child: TaskPath::root().child(1),
        }));
        m.record(&ev(EventKind::MergeFinished {
            child: TaskPath::root().child(1),
            child_continues: false,
            ops: MergeOpStats {
                child_ops: 10,
                applied_ops: 8,
                committed_ops: 4,
                child_ops_compacted: 2,
                committed_ops_compacted: 1,
                grid_cells: 2,
                delta_rebases: 3,
                grid_rebases: 1,
                delta_spans: 12,
                memo_hits: 2,
            },
            oplog_len: 18,
            merge_nanos: 1234,
        }));
        m.record(&ev(EventKind::TaskCompleted));
        let s = m.snapshot();
        assert_eq!(s.tasks_spawned, 2);
        assert_eq!(s.tasks_completed, 1);
        assert_eq!(s.merges_started, 1);
        assert_eq!(s.merges_finished, 1);
        assert_eq!(s.ops_child_total, 10);
        assert_eq!(s.ops_applied_total, 8);
        assert_eq!(s.rebases_delta_total, 3);
        assert_eq!(s.rebases_grid_total, 1);
        assert_eq!(s.delta_spans_total, 12);
        assert_eq!(s.merge_memo_hits, 2);
        assert_eq!(s.merge_latency_nanos.count(), 1);
        assert_eq!(s.oplog_len.max(), 18);
        assert_eq!(s.spawn_cost_nanos.mean(), 600.0);
    }

    #[test]
    fn tracks_pool_worker_gauges() {
        let m = Metrics::new();
        for w in 0..3 {
            m.record(&ev(EventKind::WorkerStarted { worker: w }));
        }
        m.record(&ev(EventKind::WorkerRetired { worker: 1 }));
        let s = m.snapshot();
        assert_eq!(s.workers_started, 3);
        assert_eq!(s.workers_live, 2);
        assert_eq!(s.workers_peak, 3);
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let m = Metrics::new();
        m.record(&ev(EventKind::TaskSpawned { spawn_nanos: 64 }));
        m.record(&ev(EventKind::LogTruncated { dropped: 256 }));
        let text = m.prometheus_text();
        assert!(text.contains("# TYPE sm_tasks_spawned_total counter"));
        assert!(text.contains("sm_tasks_spawned_total 1"));
        assert!(text.contains("sm_log_truncated_ops_total 256"));
        assert!(text.contains("sm_spawn_cost_nanos_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("sm_spawn_cost_nanos_count 1"));
        assert!(text.contains("# TYPE sm_merge_rebases_total counter"));
        assert!(text.contains("sm_merge_rebases_total{path=\"delta\"} 0"));
        assert!(text.contains("sm_merge_rebases_total{path=\"grid\"} 0"));
        // Every line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn aggregates_store_events() {
        let m = Metrics::new();
        m.record(&ev(EventKind::WalAppended {
            bytes: 100,
            fsynced: true,
            fsync_nanos: 5_000,
        }));
        m.record(&ev(EventKind::WalAppended {
            bytes: 60,
            fsynced: false,
            fsync_nanos: 0,
        }));
        m.record(&ev(EventKind::SnapshotTaken {
            bytes: 4096,
            snapshot_nanos: 9_000,
        }));
        m.record(&ev(EventKind::RecoveryReplayed {
            replayed_ops: 42,
            torn_bytes: 7,
            replay_nanos: 1_000,
        }));
        let s = m.snapshot();
        assert_eq!(s.wal_appends, 2);
        assert_eq!(s.wal_bytes, 160);
        assert_eq!(s.wal_fsyncs, 1);
        assert_eq!(s.fsync_nanos.count(), 1, "unsynced appends not observed");
        assert_eq!(s.snapshots, 1);
        assert_eq!(s.snapshot_bytes, 4096);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.recovery_replayed_ops, 42);
        let text = s.prometheus_text();
        assert!(text.contains("sm_wal_appends_total 2"));
        assert!(text.contains("sm_snapshot_bytes_total 4096"));
        assert!(text.contains("sm_fsync_nanos_count 1"));
        let doc = crate::json::parse(&m.json_string()).unwrap();
        assert_eq!(
            doc.get("store").unwrap().get("wal_bytes").unwrap().as_num(),
            Some(160.0)
        );
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // Uniform 1..=1000: without interpolation every mid-range
        // quantile collapses to a bucket upper bound (511, 1023, …).
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5);
        assert!(
            (495..=505).contains(&p50),
            "p50 of uniform 1..=1000 should interpolate to ~500, got {p50}"
        );
        let p90 = h.quantile(0.9);
        assert!(
            (880..=920).contains(&p90),
            "p90 should interpolate to ~900, got {p90}"
        );
        assert_eq!(h.quantile(1.0), 1000);

        // Point mass: all observations equal. Within one bucket the
        // histogram cannot see the shape, but estimates stay inside the
        // bucket's [lower, max] range, converge to max as q → 1, and
        // never exceed the true maximum (the old upper-bound answer
        // overshot by up to 2×).
        let mut point = Histogram::default();
        for _ in 0..100 {
            point.observe(700);
        }
        assert!((512..=700).contains(&point.quantile(0.5)));
        assert!(point.quantile(0.99) > 690);
        assert_eq!(point.quantile(1.0), 700);

        // Sub-microsecond regime: values in [512, 1023] (one coarse
        // bucket). The old behaviour returned 1023 for every quantile;
        // interpolation recovers the within-bucket position.
        let mut sub = Histogram::default();
        for v in (512..1024).step_by(2) {
            sub.observe(v);
        }
        let p50 = sub.quantile(0.5);
        assert!(
            (740..=790).contains(&p50),
            "p50 of uniform [512,1022] should be ~767, got {p50}"
        );
        assert!(sub.quantile(0.01) < 600, "low quantile stays near 512");
    }

    #[test]
    fn aggregates_phase_timings_and_recovery_failures() {
        let m = Metrics::new();
        m.record(&ev(EventKind::PhaseTimed {
            phase: Phase::RebaseDelta,
            nanos: 800,
        }));
        m.record(&ev(EventKind::PhaseTimed {
            phase: Phase::RebaseDelta,
            nanos: 1200,
        }));
        m.record(&ev(EventKind::PhaseTimed {
            phase: Phase::WalFsync,
            nanos: 50_000,
        }));
        m.record(&ev(EventKind::RecoveryFailed {
            reason: "DigestMismatch".into(),
        }));
        let s = m.snapshot();
        assert_eq!(s.phase_nanos.get(Phase::RebaseDelta).count(), 2);
        assert_eq!(s.phase_nanos.get(Phase::RebaseDelta).sum(), 2000);
        assert_eq!(s.phase_nanos.get(Phase::WalFsync).count(), 1);
        assert_eq!(s.phase_nanos.get(Phase::RebaseGrid).count(), 0);
        assert_eq!(s.phase_nanos.total_count(), 3);
        assert_eq!(s.recovery_failures, 1);
        let text = s.prometheus_text();
        assert!(text.contains("sm_phase_nanos_count{phase=\"rebase_delta\"} 2"));
        assert!(text.contains("sm_phase_nanos_sum{phase=\"wal_fsync\"} 50000"));
        // The whole taxonomy is visible even where unpopulated.
        assert!(text.contains("sm_phase_nanos_count{phase=\"server_dispatch\"} 0"));
        assert!(text.contains("sm_recovery_failures_total 1"));
        let doc = crate::json::parse(&m.json_string()).unwrap();
        assert_eq!(
            doc.get("phases")
                .unwrap()
                .get("rebase_delta")
                .unwrap()
                .get("count")
                .unwrap()
                .as_num(),
            Some(2.0)
        );
    }

    #[test]
    fn label_escaping_is_exposition_safe() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label(r"a\b"), r"a\\b");
        assert_eq!(escape_label("a\nb"), r"a\nb");
        // Escaped output never contains a raw quote, backslash-ambiguity
        // or newline that would break a series line.
        let hostile = "x\"\\\n{}=,y";
        let escaped = escape_label(hostile);
        assert!(!escaped.contains('\n'));
        let line = format!("sm_test{{k=\"{escaped}\"}} 1");
        let parsed = parse_exposition(&line).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "sm_test");
    }

    #[test]
    fn exposition_metric_names_are_legal() {
        let m = Metrics::new();
        m.record(&ev(EventKind::TaskSpawned { spawn_nanos: 77 }));
        m.record(&ev(EventKind::PhaseTimed {
            phase: Phase::StateApply,
            nanos: 900,
        }));
        let samples = parse_exposition(&m.prometheus_text()).expect("exposition parses");
        assert!(!samples.is_empty());
        for s in &samples {
            assert!(
                s.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "illegal metric name {:?}",
                s.name
            );
            assert!(!s.name.starts_with(|c: char| c.is_ascii_digit()));
        }
        // Illegal names are rejected by the parser itself.
        assert!(parse_exposition("9bad_name 1").is_err());
        assert!(parse_exposition("bad-name 1").is_err());
        assert!(parse_exposition("no_value").is_err());
    }

    #[test]
    fn exposition_roundtrips_through_parser() {
        let m = Metrics::new();
        m.record(&ev(EventKind::TaskSpawned { spawn_nanos: 128 }));
        m.record(&ev(EventKind::LogTruncated { dropped: 99 }));
        m.record(&ev(EventKind::PhaseTimed {
            phase: Phase::WalAppend,
            nanos: 333,
        }));
        let text = m.prometheus_text();
        let samples = parse_exposition(&text).unwrap();
        // Re-emit each parsed sample as a bare exposition line and parse
        // again: scrape → parse → re-emit must be lossless.
        let reemitted: String = samples
            .iter()
            .map(|s| format!("{}{} {}\n", s.name, s.labels, s.value))
            .collect();
        let samples2 = parse_exposition(&reemitted).unwrap();
        assert_eq!(samples, samples2);
        // Series identity (name + labels) is unique across the scrape.
        let mut keys: Vec<String> = samples
            .iter()
            .map(|s| format!("{}{}", s.name, s.labels))
            .collect();
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), total, "duplicate series in exposition");
    }

    #[test]
    fn aggregates_session_events_with_per_shard_gauges() {
        let m = Metrics::new();
        m.record(&ev(EventKind::SessionOpened {
            session: 7,
            shard: 0,
        }));
        m.record(&ev(EventKind::SessionOpened {
            session: 8,
            shard: 1,
        }));
        m.record(&ev(EventKind::SessionAttached {
            session: 7,
            shard: 0,
            subscribers: 1,
        }));
        m.record(&ev(EventKind::SessionCommitted {
            session: 7,
            seq: 1,
            ops: 5,
            digest: 0xfeed,
        }));
        m.record(&ev(EventKind::SessionEvicted {
            session: 7,
            shard: 0,
        }));
        m.record(&ev(EventKind::SessionRehydrated {
            session: 7,
            shard: 0,
            replayed_ops: 3,
        }));
        m.record(&ev(EventKind::SlowConsumerDropped { queued: 99 }));
        let s = m.snapshot();
        assert_eq!(s.sessions_opened, 2);
        assert_eq!(s.sessions_attached, 1);
        assert_eq!(s.sessions_evicted, 1);
        assert_eq!(s.sessions_rehydrated, 1);
        assert_eq!(s.session_rehydrate_replayed_ops, 3);
        assert_eq!(s.session_commits, 1);
        assert_eq!(s.session_commit_ops, 5);
        assert_eq!(s.slow_consumers_dropped, 1);
        // Shard 0: opened + rehydrated - evicted = 1; shard 1: 1.
        assert_eq!(s.sessions_active_by_shard.get(&0), Some(&1));
        assert_eq!(s.sessions_active_by_shard.get(&1), Some(&1));
        assert_eq!(s.sessions_active(), 2);
        assert_eq!(s.sessions_evicted_by_shard.get(&0), Some(&1));
        let text = s.prometheus_text();
        assert!(text.contains("sm_sessions_active 2"));
        assert!(text.contains("sm_sessions_active{shard=\"0\"} 1"));
        assert!(text.contains("sm_sessions_evicted_total{shard=\"0\"} 1"));
        assert!(text.contains("sm_session_commits_total 1"));
        assert!(text.contains("sm_slow_consumers_dropped_total 1"));
        parse_exposition(&text).expect("session families parse");
        let doc = crate::json::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(
            doc.get("sessions").unwrap().get("active").unwrap().as_num(),
            Some(2.0)
        );
    }

    #[test]
    fn json_snapshot_parses_back() {
        let m = Metrics::new();
        m.record(&ev(EventKind::TaskSpawned { spawn_nanos: 10 }));
        m.record(&ev(EventKind::Mark {
            label: "round 1".into(),
        }));
        let doc = crate::json::parse(&m.json_string()).unwrap();
        assert_eq!(
            doc.get("tasks").unwrap().get("spawned").unwrap().as_num(),
            Some(1.0)
        );
        assert_eq!(doc.get("marks").unwrap().as_num(), Some(1.0));
        assert!(doc
            .get("histograms")
            .unwrap()
            .get("spawn_cost_nanos")
            .is_some());
    }
}
