//! What the benchmark declares: workloads, metrics, units and bounds.
//!
//! `BENCHMARK.json` at the repository root is this file rendered by
//! `sm-benchmark --print-benchmark-json`; a test holds the two equal, so
//! a metric cannot be emitted without being declared or the reverse.

use spawn_merge::obs::json::Json;

/// Seconds one driver run measures (`run_seconds`); also the default
/// of `--seconds`.
pub const RUN_SECONDS: u64 = 30;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "commit_shared",
        why: "one blocking client commit through sm-server: the only path through net, codec \
              and the store's write side; thread hops, history clones and OT rebase+apply \
              each weigh a quarter to a third",
    },
    WorkloadDecl {
        name: "merge_fanout",
        why: "one run_with_pool merging 128 insert-only then 128 mixed children: core pool and \
              the staged merge lanes do all the work; no server, store, codec or net",
    },
    WorkloadDecl {
        name: "recover_replay",
        why: "one crash recovery of a 200k-op journal: the store's read side (scan, CRC, \
              decode, prepared replay); its set-up is the WAL write-throughput guard",
    },
    WorkloadDecl {
        name: "fig3_sim",
        why: "the paper's Figure 3 simulation at host workload 0: hundreds of narrow \
              Sync/MergeAll rounds, the opposite use of core to merge_fanout's wide merges",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The bounds follow the README's A/A tables: the driver accepts a
/// bound only above the ten-seed spread of its metric, and on this box
/// that spread reaches 10–15 % of the median in a noisy hour even at
/// reference speed.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn ns(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: "lower",
    }
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// Layer = crate. `<span>_ns` metrics are the median over traced ops of
/// the span of that name (see `main.rs::span_metrics`).
pub const PER_LAYER: [PerLayer; 73] = [
    // server: the commit ledger
    ns("server.round_trip_ns"),
    ns("server.ledger_sum_ns"),
    ns("server.residual_ns"),
    ns("server.ping_rtt_ns"),
    ns("server.dispatch_p50_ns"),
    lower("server.fanout_per_commit", "count"),
    // net
    ns("net.stream_rtt_ns"),
    ns("net.frame_encode_ns"),
    ns("net.frame_decode_ns"),
    lower("net.crc32_ns_per_mb", "ns/MB"),
    // codec
    ns("codec.commit_encode_ns"),
    ns("codec.commit_decode_ns"),
    ns("codec.bcast_encode_ns"),
    ns("codec.bcast_decode_ns"),
    lower("codec.wire_bytes_per_commit", "B"),
    ns("codec.record_decode_ns"),
    // mergeable
    ns("mergeable.client_build_ns"),
    ns("mergeable.client_clone_ns"),
    ns("mergeable.base_clone_ns"),
    ns("mergeable.apply_log_ns"),
    ns("mergeable.head_clone_ns"),
    ns("mergeable.merge_ns"),
    ns("mergeable.slice_encode_ns"),
    ns("mergeable.ring_fork_ns"),
    ns("mergeable.mirror_apply_ns"),
    ns("mergeable.seq_fold_ns"),
    ns("mergeable.replay_ns"),
    // ot: the program's own counters, per op, read by name
    lower("ot.delta_rebases", "count"),
    lower("ot.grid_rebases", "count"),
    lower("ot.grid_cells", "count"),
    lower("ot.screen_rejects", "count"),
    lower("ot.ops_transformed", "count"),
    ns("ot.rebase_ns"),
    // store
    ns("store.commit_ns"),
    lower("store.journal_bytes_per_commit", "B"),
    lower("store.fsyncs_per_commit", "count"),
    ns("store.open_ns"),
    ns("store.recover_ns"),
    higher("store.replay_ops_per_s", "1/s"),
    lower("store.journal_bytes", "B"),
    lower("store.segments", "count"),
    ns("store.build_commit_ns"),
    // core
    ns("core.spawn_ns"),
    ns("core.children_done_ns"),
    ns("core.merge_all_insert_ns"),
    ns("core.merge_all_mixed_ns"),
    ns("core.run_overhead_ns"),
    lower("core.pool_peak_workers", "count"),
    lower("core.pool_threads_created", "count"),
    ns("core.pool_queue_wait_ns_per_job"),
    higher("core.staged_merges", "count"),
    higher("core.staged_speedup", "ratio"),
    ns("core.round_ns"),
    // netsim, sha1
    lower("netsim.rounds", "count"),
    higher("netsim.hops", "count"),
    lower("netsim.conventional_run_us", "us"),
    lower("netsim.overhead_ratio", "ratio"),
    ns("sha1.digest_ns"),
    // obs
    lower("obs.recorder_overhead_pct", "%"),
    lower("obs.events_per_op", "count"),
    // diagnostics: the client's view, the allocator, the box, the tracer
    lower("client.op_tail_us", "us"),
    higher("client.op_tail_pct", "%"),
    higher("client.samples", "count"),
    higher("client.rounds", "count"),
    lower("client.rebase_lag_mean", "count"),
    lower("client.history_ops_at_end", "count"),
    lower("alloc.count_per_op", "count"),
    lower("alloc.bytes_per_op", "B"),
    lower("host.sort_ref_us", "us"),
    lower("host.spin_ref_us", "us"),
    lower("host.wake_ref_us", "us"),
    lower("trace.overhead_pct", "%"),
    higher("trace.spans", "count"),
];

/// `BENCHMARK.json`, exactly.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
            ])
        })
        .collect();
    let doc = [
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ];
    // One entry per line: the file is read by people too.
    let mut out = String::from("{\n");
    for (i, (key, value)) in doc.iter().enumerate() {
        let comma = if i + 1 < doc.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {item}{comma}\n"));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            value => out.push_str(&format!("  \"{key}\": {value}{comma}\n")),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spawn_merge::obs::json;

    fn legal(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(legal(name, 64, "_.-"), "bad name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(seen.insert(name), "{name} is declared twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(legal(unit, 16, "_/%.-"), "bad unit {unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `sm-benchmark --print-benchmark-json > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 << 10);
        let doc = json::parse(&on_disk).expect("valid JSON");
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
