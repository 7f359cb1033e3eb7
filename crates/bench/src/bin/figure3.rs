//! Regenerate **Figure 3** of the paper: simulation time vs host workload
//! for the four test setups, plus the prose numbers of §III (constant
//! overhead, relative overhead at l=1000 / l=10000, det-vs-non-det gap).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sm-bench --bin figure3 [-- --quick] [-- --reps N]
//! ```
//!
//! `--quick` runs a reduced sweep (smaller workloads, fewer points) for
//! smoke-testing; the default reproduces the paper's sweep: 20 hosts, 100
//! messages, TTL 100, l ∈ {0, 1000, …, 10000}.

use sm_bench::{
    install_metrics, overhead_percent, render_table, sweep, write_metrics_sidecar, Series,
};
use sm_netsim::{Routing, Setup, SimConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Machine-readable sidecar: aggregate runtime telemetry (merge
    // latencies, ops transformed, pool churn) for the whole run.
    let metrics = install_metrics();
    run(&args);
    write_metrics_sidecar(&metrics, "figure3", &args);
}

fn run(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");

    // Diagnostic mode: raw platform hash throughput, single- vs
    // multi-threaded (same total work), to separate hashing cost from
    // synchronization structure when interpreting the sweep.
    if args.iter().any(|a| a == "--hashrate") {
        let hops = 10_000usize;
        let iters = 500usize;
        let work = move |n: usize| {
            let mut d = sm_sha1::sha1(b"seed");
            for _ in 0..n {
                d = sm_sha1::sha1_iterated(&d, iters);
            }
            d
        };
        let t = std::time::Instant::now();
        std::hint::black_box(work(hops));
        let single = t.elapsed();
        println!("single thread : {hops} hops x {iters} iters in {single:?}");

        for threads in [4usize, 20] {
            let t = std::time::Instant::now();
            let per = hops / threads;
            let joins: Vec<_> = (0..threads)
                .map(|_| std::thread::spawn(move || std::hint::black_box(work(per))))
                .collect();
            for j in joins {
                let _ = j.join();
            }
            let multi = t.elapsed();
            println!(
                "{threads:>2} threads    : same total work in {multi:?} ({:+.1}% vs single)",
                (multi.as_secs_f64() / single.as_secs_f64() - 1.0) * 100.0
            );
        }
        return;
    }

    // Diagnostic mode: run ONE setup at ONE workload and exit, so external
    // profilers (`/usr/bin/time -v`, `perf stat`) see a single clean run.
    //   figure3 -- --single <conv-nd|conv-d|sm-nd|sm-d> <workload>
    if let Some(i) = args.iter().position(|a| a == "--single") {
        let setup = match args.get(i + 1).map(String::as_str) {
            Some("conv-nd") => Setup::ConventionalNonDet,
            Some("conv-d") => Setup::ConventionalDet,
            Some("sm-nd") => Setup::SpawnMergeNonDet,
            Some("sm-d") => Setup::SpawnMergeDet,
            other => panic!("unknown setup {other:?}"),
        };
        let workload: usize = args.get(i + 2).and_then(|v| v.parse().ok()).unwrap_or(1000);
        let cfg = SimConfig {
            workload,
            ..SimConfig::paper(0, Routing::HashDerived)
        };
        let r = sm_netsim::run_setup(setup, &cfg);
        println!(
            "{} l={workload}: {:.1} ms ({} hops, {} rounds)",
            setup.label(),
            r.elapsed.as_secs_f64() * 1000.0,
            r.total_processed,
            r.rounds
        );
        return;
    }
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);

    let medium = args.iter().any(|a| a == "--medium");
    let (cfg, workloads): (SimConfig, Vec<usize>) = if quick {
        (
            SimConfig {
                hosts: 8,
                initial_messages: 24,
                ttl: 20,
                workload: 0,
                routing: Routing::HashDerived,
            },
            vec![0, 200, 400, 600, 800, 1000],
        )
    } else if medium {
        // Paper-scale configuration, reduced workload grid: fits slower
        // boxes while still exposing intercept, slope and overhead trend.
        (
            SimConfig::paper(0, Routing::HashDerived),
            vec![0, 500, 1000, 2000, 4000],
        )
    } else {
        (
            SimConfig::paper(0, Routing::HashDerived),
            (0..=10).map(|i| i * 1000).collect(),
        )
    };

    eprintln!(
        "figure3: {} hosts, {} messages, TTL {}, {} workload points, {} rep(s) per point",
        cfg.hosts,
        cfg.initial_messages,
        cfg.ttl,
        workloads.len(),
        reps
    );

    let mut series: Vec<Series> = Vec::new();
    for setup in Setup::ALL {
        eprintln!("sweeping {} ...", setup.label());
        series.push(sweep(setup, &cfg, &workloads, reps));
    }

    println!("\n=== Figure 3: Simulation Time (ms) vs Host Workload (SHA-1 iterations) ===\n");
    print!("{}", render_table(&series));

    println!("\n=== Linear fits (ms ≈ intercept + slope × workload) ===\n");
    for s in &series {
        let (intercept, slope) = s.linear_fit();
        println!(
            "{:<28} intercept {:>9.1} ms   slope {:>9.5} ms/iter",
            s.setup.label(),
            intercept,
            slope
        );
    }

    // §III prose: the Spawn & Merge constant overhead and its relative
    // decline with increasing workload.
    let conv_nd = &series[0];
    let conv_d = &series[1];
    let sm_nd = &series[2];
    let sm_d = &series[3];

    println!("\n=== Spawn & Merge overhead vs conventional (paper: ~38% @1000 → ~7% @10000) ===\n");
    println!(
        "{:>10}  {:>22}  {:>22}",
        "workload", "non-det overhead %", "det overhead %"
    );
    for p in &conv_nd.points {
        let w = p.workload;
        let o_nd = overhead_percent(sm_nd.at(w).unwrap(), conv_nd.at(w).unwrap());
        let o_d = overhead_percent(sm_d.at(w).unwrap(), conv_d.at(w).unwrap());
        println!("{w:>10}  {o_nd:>21.1}%  {o_d:>21.1}%");
    }

    let (sm_nd_i, _) = sm_nd.linear_fit();
    let (conv_nd_i, _) = conv_nd.linear_fit();
    println!(
        "\nConstant Spawn&Merge overhead (intercept difference): {:.1} ms (paper: ~400 ms on 2013 hardware)",
        sm_nd_i - conv_nd_i
    );

    println!("\n=== Spawn & Merge det vs non-det (paper: det ~1-4% faster) ===\n");
    for p in &sm_nd.points {
        let w = p.workload;
        let nd = sm_nd.at(w).unwrap();
        let d = sm_d.at(w).unwrap();
        println!(
            "{:>10}  non-det {:>9.1} ms   det {:>9.1} ms   det/non-det {:>6.3}",
            w,
            nd,
            d,
            d / nd
        );
    }
}
