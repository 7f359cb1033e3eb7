//! `sm-benchmark` — four workloads, four end-to-end metrics, and an
//! outside-in layer ledger for the Spawn & Merge workspace.
//!
//! ```text
//! sm-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, JSON result last
//! sm-benchmark [--seed N] [--seconds S] [--trace 0|1]             all four workloads
//! sm-benchmark --repeat N [--no-bounds]                           A/A: N suites, one seed
//! sm-benchmark --print-benchmark-json                             BENCHMARK.json, rendered
//! ```
//!
//! See `README.md` beside this package for the metric glossary, the
//! interaction table and how to read a trace.

mod alloc;
mod counters;
mod decl;
mod gen;
mod harness;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Duration;

use harness::{Failures, Hooks, Layers, Rounds, Workload};
use spawn_merge::obs::json::Json;
use trace::Tracer;
use workloads::{commit_shared, fig3_sim, merge_fanout, recover_replay};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 20_140_519;
/// Traces and scratch journals, relative to the repository root the
/// benchmark is run from.
const OUT_DIR: &str = "benchmark/out";
/// Cap on one `<workload>.trace.json`.
const TRACE_BYTES: usize = 2 << 20;
/// How a traced run splits its seconds: plain rounds (the reference
/// median), rounds with an `sm_obs::Metrics` installed around the ops,
/// rounds with spans. The rest is left for probes.
const TRACE_SPLIT: [f64; 3] = [0.3, 0.2, 0.4];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    bounds: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: decl::RUN_SECONDS as f64,
        trace: false,
        repeat: 0,
        bounds: true,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !decl::WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--no-bounds" => args.bounds = false,
            "--print-benchmark-json" => {
                print!("{}", decl::benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(args))
}

fn make(name: &str, seed: u64, scratch: &Path) -> Box<dyn Workload> {
    match name {
        "commit_shared" => Box::new(commit_shared::CommitShared::new(
            seed,
            scratch.to_path_buf(),
        )),
        "merge_fanout" => Box::new(merge_fanout::MergeFanout::new(seed)),
        "recover_replay" => Box::new(recover_replay::RecoverReplay::new(
            seed,
            scratch.to_path_buf(),
        )),
        "fig3_sim" => Box::new(fig3_sim::Fig3Sim::new()),
        other => unreachable!("parse_args admits declared workloads only, not {other}"),
    }
}

/// What one run of one workload produced.
struct Outcome {
    workload: &'static str,
    /// Declared metrics in declaration order; `None` prints as `null`
    /// and goes out as 0 (not applicable on this workload, or a counter
    /// name the program no longer has).
    metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    failures: Failures,
    input_digest: u64,
    output_digest: u64,
    /// Each plain round's median op: a run the box disturbed shows here.
    round_p50_us: Vec<f64>,
    /// The plain rounds' `op_p50_us`, `ops_per_s` and `setup_s` as the
    /// clock read them, and the median reference sample in microseconds.
    clocked: [f64; 4],
    samples: usize,
    params: String,
    missing_names: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.failed == 0 && self.failures.attempted > 0
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, ..)| *n == name)
            .and_then(|(.., v)| *v)
            .unwrap_or(0.0)
    }

    /// The driver's result line.
    fn result_json(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, unit, value)| {
            let entry = [
                ("value", Json::Num(value.unwrap_or(0.0))),
                ("unit", Json::str(*unit)),
            ];
            (*name, Json::obj(entry))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            (
                "attempted",
                Json::Num(self.failures.attempted.max(1) as f64),
            ),
            ("failed", Json::Num(self.failures.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }

    fn print(&self, seed: u64) {
        println!(
            "workload {}  seed {seed}  input {:016x}  output {:016x}  rounds {}  samples {}",
            self.workload,
            self.input_digest,
            self.output_digest,
            self.round_p50_us.len(),
            self.samples
        );
        println!("  params {}", self.params);
        let per_round: Vec<String> = self
            .round_p50_us
            .iter()
            .map(|us| format!("{us:.1}"))
            .collect();
        println!("  p50 of each round, us: {}", per_round.join(" "));
        let [p50, rate, setup, reference] = self.clocked;
        println!(
            "  as the clock read them: op_p50_us {p50:.4}  ops_per_s {rate:.4}  setup_s {setup:.4}  \
             (reference block sorted in {reference:.1} us)"
        );
        for (name, unit, value) in &self.metrics {
            match value {
                Some(v) => println!("  {name:<34} {v:>16.4} {unit}"),
                None => println!(
                    "  {name:<34} {:>16} {unit}  (no sample on this workload)",
                    "null"
                ),
            }
        }
        if !self.missing_names.is_empty() {
            println!(
                "  counter names not found in Metrics::json_string(): {}",
                self.missing_names.join(", ")
            );
        }
        println!(
            "  attempted {}  failed {}  correct {}",
            self.failures.attempted,
            self.failures.failed,
            self.correct()
        );
        for note in self.failures.notes() {
            println!("  FAILED: {note}");
        }
    }
}

fn clocked(rounds: &Rounds) -> [f64; 4] {
    [
        rounds.op_p50_us(),
        rounds.ops_per_s(),
        rounds.setup_s(),
        rounds.reference_us(),
    ]
}

/// The untraced run: rounds while one more and the memory round still
/// fit into `seconds`, then the memory round. All four end-to-end
/// metrics come from here and only from here.
fn run_plain(w: &mut dyn Workload, seconds: f64) -> Outcome {
    let mut failures = Failures::default();
    let mut layers = Layers::default();
    let rounds = harness::run_rounds(
        w,
        Duration::from_secs_f64(seconds),
        1,
        &mut Tracer::off(),
        &mut layers,
        &mut failures,
        &mut Hooks::none(),
    );
    let memory = harness::memory_round(w, &mut failures);
    let scaled = rounds.at_reference_speed();
    let values = [
        scaled.op_p50_us(),
        scaled.ops_per_s(),
        scaled.setup_s(),
        memory.peak_heap_mb,
    ];
    Outcome {
        workload: w.name(),
        metrics: decl::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, Some(v)))
            .collect(),
        input_digest: w.input_digest(),
        output_digest: rounds.output_digest.unwrap_or(0),
        round_p50_us: rounds.round_p50_us(),
        clocked: clocked(&rounds),
        samples: rounds.ops_ns.len(),
        params: w.params(),
        failures,
        missing_names: Vec::new(),
    }
}

/// `<span>_ns` metrics: for every span name the tracer saw, the median
/// over traced ops of that span's (summed) duration, if declared.
fn span_metrics(spans: &[trace::Span], layers: &mut Layers) {
    let names: std::collections::BTreeSet<&'static str> = spans.iter().map(|s| s.name).collect();
    for span in names {
        let metric = format!("{span}_ns");
        if let Some(decl) = decl::PER_LAYER.iter().find(|m| m.name == metric) {
            layers.sample_median_ns(decl.name, &trace::per_op_sums(spans, span));
        }
    }
}

/// The traced run: every per-layer metric, one trace file.
fn run_traced(w: &mut dyn Workload, seconds: f64, out_dir: &Path) -> Outcome {
    let mut failures = Failures::default();
    let mut layers = Layers::default();
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);

    // Plain rounds: the reference median; host probes between rounds.
    let plain = harness::run_rounds(
        w,
        budget(TRACE_SPLIT[0]),
        0,
        &mut Tracer::off(),
        &mut layers,
        &mut failures,
        &mut Hooks {
            between: Box::new(probes::host),
            ..Hooks::none()
        },
    );

    // Rounds with the program's own recorder installed around the ops.
    let recorder = Arc::new(counters::Counting::default());
    let observed = harness::run_rounds(
        w,
        budget(TRACE_SPLIT[1]),
        0,
        &mut Tracer::off(),
        &mut layers,
        &mut failures,
        &mut Hooks {
            before_ops: Box::new(|| recorder.install()),
            after_ops: Box::new(counters::Counting::uninstall),
            ..Hooks::none()
        },
    );
    let mut missing_names = Vec::new();
    let observed_ops = observed.ops_ns.len() as u64;
    counters::by_name(
        &recorder.json(),
        observed_ops,
        &mut layers,
        &mut missing_names,
    );
    layers.sample(
        "obs.events_per_op",
        recorder.events() as f64 / observed_ops.max(1) as f64,
    );

    // Rounds with spans.
    let mut tracer = Tracer::on();
    let traced = harness::run_rounds(
        w,
        budget(TRACE_SPLIT[2]),
        0,
        &mut tracer,
        &mut layers,
        &mut failures,
        &mut Hooks::none(),
    );
    let spans = tracer.spans();
    span_metrics(spans, &mut layers);

    let memory = harness::memory_round(w, &mut failures);
    w.probes(&mut layers);

    // Derived metrics.
    let p50 = plain.op_p50_us();
    let overhead_pct = |other: &Rounds| (other.op_p50_us() - p50) / p50 * 100.0;
    layers.sample("obs.recorder_overhead_pct", overhead_pct(&observed));
    layers.sample("trace.overhead_pct", overhead_pct(&traced));
    layers.sample("trace.spans", spans.len() as f64);
    layers.sample("alloc.count_per_op", memory.allocs_per_op);
    layers.sample("alloc.bytes_per_op", memory.alloc_bytes_per_op);
    layers.sample("client.samples", plain.ops_ns.len() as f64);
    layers.sample("client.rounds", plain.rounds() as f64);
    layers.sample("host.sort_ref_us", plain.reference_us());
    let mut sorted = plain.ops_ns.clone();
    sorted.sort_unstable();
    let tail = stats::tail_percentile(sorted.len());
    layers.sample("client.op_tail_pct", tail);
    layers.sample(
        "client.op_tail_us",
        stats::percentile_sorted(&sorted, tail) as f64 / 1e3,
    );
    if w.name() == "commit_shared" {
        probes::stream_rtt(&mut layers);
        // The ledger: what the shadow's blocking-path spans add up to,
        // against the real round trip of the same traced rounds. The
        // residual is everything the shadow cannot see from outside:
        // thread hops, queues, acks.
        let round_trip = stats::median_ns(&traced.ops_ns);
        let ledger = stats::median_ns(&commit_shared::ledger_sums(spans));
        layers.sample("server.round_trip_ns", round_trip);
        layers.sample("server.ledger_sum_ns", ledger);
        layers.sample("server.residual_ns", round_trip - ledger);
    }
    // What `run_with_pool` costs beyond its spawns, waits and merges:
    // the self time of the op's own span.
    let own = trace::self_times(spans);
    let run_own: Vec<u64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "core.run")
        .map(|(_, own)| *own)
        .collect();
    layers.sample_median_ns("core.run_overhead_ns", &run_own);
    if let (Some(fold), Some(insert), Some(mixed)) = (
        layers.get("mergeable.seq_fold_ns"),
        layers.get("core.merge_all_insert_ns"),
        layers.get("core.merge_all_mixed_ns"),
    ) {
        layers.sample("core.staged_speedup", fold / (insert + mixed));
    }
    if let (Some(ops), Some(ns)) = (
        layers.get("store.replayed_ops"),
        layers.get("store.recover_ns"),
    ) {
        layers.sample("store.replay_ops_per_s", ops / (ns / 1e9));
    }
    if let Some(conventional) = layers.get("netsim.conventional_run_us") {
        layers.sample("netsim.overhead_ratio", p50 / conventional);
    }

    let trace_path = out_dir.join(format!("{}.trace.json", w.name()));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&trace_path, trace::chrome_json(spans, TRACE_BYTES)));
    if let Err(e) = written {
        failures.fail(|| format!("cannot write {}: {e}", trace_path.display()));
    }

    Outcome {
        workload: w.name(),
        metrics: decl::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layers.get(m.name)))
            .collect(),
        input_digest: w.input_digest(),
        output_digest: plain.output_digest.unwrap_or(0),
        round_p50_us: plain.round_p50_us(),
        clocked: clocked(&plain),
        samples: plain.ops_ns.len() + observed.ops_ns.len() + traced.ops_ns.len(),
        params: w.params(),
        failures,
        missing_names,
    }
}

fn run_one(name: &str, args: &Args, scratch: &Path) -> Outcome {
    let mut w = make(name, args.seed, scratch);
    if args.trace {
        run_traced(w.as_mut(), args.seconds, Path::new(OUT_DIR))
    } else {
        run_plain(w.as_mut(), args.seconds)
    }
}

fn tool_line(program: &str, argv: &[&str]) -> String {
    Command::new(program)
        .args(argv)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn print_env(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "env  nproc {nproc}  rev {}  {}  seed {}  seconds {}  trace {}",
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["--version"]),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env  one generator thread, closed loop, one op in flight; program knobs at defaults \
         except commit_shared's server: shards {}, idle_after 1 h, fsync EveryN({})",
        commit_shared::PARAMS.shards,
        commit_shared::PARAMS.fsync_every_n
    );
}

/// `--repeat N`: the suite N times with one seed; min / median / max
/// and `(max − min) / median` per end-to-end metric per workload.
/// Returns whether every spread stayed within its bound.
fn print_spreads(suites: &[Vec<Outcome>]) -> bool {
    let mut within = true;
    println!(
        "\n{:<16} {:<13} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (i, w) in decl::WORKLOADS.iter().enumerate() {
        for m in &decl::END_TO_END {
            let values: Vec<f64> = suites.iter().map(|s| s[i].value(m.name)).collect();
            let spread = stats::range_spread(&values);
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let flag = if spread > m.bound { "  OVER" } else { "" };
            within &= spread <= m.bound;
            println!(
                "{:<16} {:<13} {min:>12.4} {:>12.4} {max:>12.4} {:>7.2}% {:>6.0}%{flag}",
                w.name,
                m.name,
                stats::median(&values),
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    within
}

fn run(args: &Args, scratch: &Path) -> bool {
    print_env(args);
    if let Some(name) = &args.workload {
        let outcome = run_one(name, args, scratch);
        outcome.print(args.seed);
        println!("{}", outcome.result_json());
        return true;
    }
    let suites: Vec<Vec<Outcome>> = (0..args.repeat.max(1))
        .map(|_| {
            decl::WORKLOADS
                .iter()
                .map(|w| {
                    let outcome = run_one(w.name, args, scratch);
                    outcome.print(args.seed);
                    outcome
                })
                .collect()
        })
        .collect();
    let mut ok = suites.iter().flatten().all(Outcome::correct);
    for (i, w) in decl::WORKLOADS.iter().enumerate() {
        let same = |digest: fn(&Outcome) -> u64| {
            suites
                .iter()
                .all(|s| digest(&s[i]) == digest(&suites[0][i]))
        };
        if !same(|o| o.input_digest) || !same(|o| o.output_digest) {
            println!("{}: digests differ between suites of one seed", w.name);
            ok = false;
        }
    }
    if args.repeat > 1 && !args.trace {
        let within = print_spreads(&suites);
        ok &= within || !args.bounds;
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Journals live under the out dir and go away with the run.
    let scratch = Path::new(OUT_DIR)
        .join("scratch")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("sm-benchmark: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let ok = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tiny(name: &str, seed: u64, scratch: &Path) -> Box<dyn Workload> {
        match name {
            "commit_shared" => Box::new(commit_shared::CommitShared::with_params(
                seed,
                scratch.to_path_buf(),
                commit_shared::Params {
                    sessions: 3,
                    warm_sessions: 1,
                    commits_per_session: 6,
                    shadow_every: 2,
                    ..commit_shared::PARAMS
                },
            )),
            "merge_fanout" => Box::new(merge_fanout::MergeFanout::with_params(
                seed,
                merge_fanout::Params {
                    ops_per_round: 2,
                    ..merge_fanout::PARAMS
                },
            )),
            "recover_replay" => Box::new(recover_replay::RecoverReplay::with_params(
                seed,
                scratch.to_path_buf(),
                recover_replay::Params {
                    commits: 16,
                    ops_per_commit: 50,
                    segment_bytes: 4 << 10,
                    ops_per_round: 2,
                    ..recover_replay::PARAMS
                },
            )),
            _ => Box::new(fig3_sim::Fig3Sim::with_params(fig3_sim::Params {
                ops_per_round: 1,
                ..fig3_sim::PARAMS
            })),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out/scratch")
            .join(format!("test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn same_seed_same_inputs_and_another_seed_other_inputs() {
        let dir = scratch("digests");
        for name in ["commit_shared", "merge_fanout", "recover_replay"] {
            let digest = |seed| tiny(name, seed, &dir).input_digest();
            assert_eq!(digest(1), digest(1), "{name}");
            assert_ne!(digest(1), digest(2), "{name}");
        }
        // The paper's simulation has no free input.
        assert_eq!(
            tiny("fig3_sim", 1, &dir).input_digest(),
            tiny("fig3_sim", 2, &dir).input_digest()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Runs touch process-global state (the recorder slot, the allocator
    /// switch), so the two modes share one test and run in sequence.
    #[test]
    fn every_workload_emits_exactly_the_declared_names_and_checks_out() {
        let dir = scratch("names");
        for w in &decl::WORKLOADS {
            let plain = run_plain(tiny(w.name, 7, &dir).as_mut(), 0.01);
            assert!(plain.correct(), "{}: {:?}", w.name, plain.failures.notes());
            let doc = spawn_merge::obs::json::parse(&plain.result_json()).unwrap();
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics object")
            };
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let declared: Vec<&str> = decl::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(emitted, declared);
            assert!(metrics
                .iter()
                .all(|(_, m)| m.get("value").and_then(Json::as_num) > Some(0.0)));

            let traced = run_traced(tiny(w.name, 7, &dir).as_mut(), 0.03, &dir);
            assert!(
                traced.correct(),
                "{}: {:?}",
                w.name,
                traced.failures.notes()
            );
            assert_eq!(traced.output_digest, plain.output_digest, "{}", w.name);
            let emitted: Vec<&str> = traced.metrics.iter().map(|(n, ..)| *n).collect();
            let declared: Vec<&str> = decl::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(emitted, declared);
            let file = dir.join(format!("{}.trace.json", w.name));
            let trace =
                spawn_merge::obs::json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
            assert!(!trace
                .get("traceEvents")
                .and_then(Json::as_arr)
                .unwrap()
                .is_empty());

            // Layers a workload does not touch must read null.
            if w.name != "commit_shared" {
                for (name, _, value) in &traced.metrics {
                    let server_only = name.starts_with("server.")
                        || name.starts_with("codec.commit_")
                        || *name == "net.stream_rtt_ns";
                    assert!(!server_only || value.is_none(), "{} has {name}", w.name);
                }
            } else {
                let v = |name| traced.value(name);
                let sum = v("server.ledger_sum_ns") + v("server.residual_ns");
                assert!((sum - v("server.round_trip_ns")).abs() < 1e-6);
                assert!(v("mergeable.head_clone_ns") > 0.0 && v("store.commit_ns") > 0.0);
            }
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn release_profile_equals_the_root_manifest() {
        let table = |path: &str| {
            let text = std::fs::read_to_string(path).unwrap();
            let mut lines: Vec<String> = text
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
                .filter(|l| !l.is_empty())
                .collect();
            lines.sort();
            lines
        };
        let here = table(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = table(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(here, root);
    }
}
