//! Emit `BENCH_recovery.json`: the durability cost model for the
//! sm-store WAL (PR: durable op-log tentpole).
//!
//! Three measurements:
//!
//! * `append` — sustained commit throughput per [`FsyncPolicy`]: the
//!   per-commit price of "no committed merge is ever lost" (`Always`)
//!   versus group commit (`EveryN`).
//! * `snapshot` — full-state snapshot cost against state size, and the
//!   snapshot's on-disk footprint.
//! * `recovery` — end-to-end crash recovery (snapshot load + WAL replay
//!   through the OT apply path + digest-chain verification) for journals
//!   of 10^4, 10^5 and 10^6 scattered list operations, through
//!   `Store::recover` (the list lane's batch replay) and through the
//!   `recover_serial` reference (one `apply_log` per commit) — the same
//!   scan, both on the calling thread, best of two runs each — reported
//!   as total wall time, replayed ops/second, and the
//!   prepared-over-per-commit speedup.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sm-bench --bin bench_recovery \
//!     [-- --quick] [-- --out PATH] [-- --assert-floors]
//! ```
//!
//! `--quick` reduces repetitions and skips the 10^6 journal for CI smoke
//! runs; `--out` overrides the default output path `BENCH_recovery.json`;
//! `--assert-floors` exits non-zero unless the prepared replay speedup
//! clears its regression floor (>= 4x, halved to >= 2x under `--quick`,
//! where the journals are smaller and fixed costs weigh more). The
//! `env` block records where the numbers were taken: cores, `git
//! describe --always --dirty`, `rustc --version`, `--quick`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sm_mergeable::MList;
use sm_netsim::workload::Lcg;
use sm_obs::TaskPath;
use sm_store::{FsyncPolicy, Store, StoreOptions};

/// Scratch directory under the OS temp root, wiped on entry.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sm-bench-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Journal `total_ops` scattered inserts in commits of `ops_per_commit`.
/// Segments roll at 1 MiB so the large journals span several.
fn build_journal(dir: &Path, total_ops: usize, ops_per_commit: usize, fsync: FsyncPolicy) -> Store {
    let store = Store::open(
        dir.to_path_buf(),
        StoreOptions {
            fsync,
            segment_bytes: 1 << 20,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    let mut rng = Lcg::new(0x5EED);
    let mut done = 0usize;
    while done < total_ops {
        let batch = ops_per_commit.min(total_ops - done);
        for _ in 0..batch {
            let window = (data.len() + 1).min(4096);
            let at = data.len() + 1 - window + (rng.next() as usize) % window;
            data.insert(at, rng.next());
        }
        store.commit(&data, &TaskPath::root()).unwrap();
        done += batch;
    }
    store.sync().unwrap();
    store
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
        .unwrap_or_else(|| "BENCH_recovery.json".to_string());

    let mut json = String::from("{\n  \"bench\": \"recovery\",\n");
    json.push_str(&sm_bench::env_json_line(quick));

    // ------------------------------------------------------------------
    // Append throughput per fsync policy.
    // ------------------------------------------------------------------
    json.push_str("  \"append\": [\n");
    let commits = if quick { 200 } else { 2_000 };
    let policies: &[(&str, FsyncPolicy)] = &[
        ("always", FsyncPolicy::Always),
        ("every_64", FsyncPolicy::EveryN(64)),
    ];
    for (pi, (name, policy)) in policies.iter().enumerate() {
        let dir = scratch(&format!("append-{name}"));
        let store = Store::open(
            dir.clone(),
            StoreOptions {
                fsync: *policy,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let mut data = MList::<u64>::new();
        store.begin(&data).unwrap();
        let t = Instant::now();
        for i in 0..commits {
            data.push(i as u64);
            store.commit(&data, &TaskPath::root()).unwrap();
        }
        store.sync().unwrap();
        let total_ns = t.elapsed().as_nanos() as u64;
        let per_commit = total_ns / commits as u64;
        let per_sec = commits as f64 / (total_ns as f64 / 1e9);
        eprintln!(
            "append {commits} commits, fsync={name}: {per_commit} ns/commit, {per_sec:.0} commits/s"
        );
        if pi > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"policy\": \"{name}\", \"commits\": {commits}, \
             \"ns_per_commit\": {per_commit}, \"commits_per_sec\": {per_sec:.0}}}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ------------------------------------------------------------------
    // Snapshot cost vs state size.
    // ------------------------------------------------------------------
    json.push_str("\n  ],\n  \"snapshot\": [\n");
    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    for (si, &size) in sizes.iter().enumerate() {
        let dir = scratch(&format!("snap-{size}"));
        let store = Store::open(dir.clone(), StoreOptions::default()).unwrap();
        let data = MList::<u64>::from_iter(0..size as u64);
        store.begin(&data).unwrap();
        let t = Instant::now();
        store.snapshot(&data).unwrap();
        let snap_ns = t.elapsed().as_nanos() as u64;
        let snap_bytes: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let e = e.unwrap();
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("snap-"))
                    .then(|| e.metadata().unwrap().len())
            })
            .max()
            .unwrap_or(0);
        eprintln!("snapshot @ {size} elems: {snap_ns} ns, {snap_bytes} bytes");
        if si > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"elems\": {size}, \"snapshot_ns\": {snap_ns}, \"bytes\": {snap_bytes}}}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ------------------------------------------------------------------
    // Recovery time vs journal size.
    // ------------------------------------------------------------------
    json.push_str("\n  ],\n  \"recovery\": [\n");
    let journal_sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut largest_speedup = 0.0f64;
    for (ji, &total_ops) in journal_sizes.iter().enumerate() {
        let dir = scratch(&format!("recover-{total_ops}"));
        let build = Instant::now();
        let store = build_journal(&dir, total_ops, 1_000, FsyncPolicy::EveryN(256));
        let build_ns = build.elapsed().as_nanos() as u64;
        let commits = store.last_seq();
        drop(store);

        // Best of two runs per replay, interleaved so page cache and
        // allocator warmth favour neither side.
        let mut serial_ns = u64::MAX;
        let mut recover_ns = u64::MAX;
        let mut replayed = 0u64;
        for _ in 0..2 {
            let reopened = Store::open(dir.clone(), StoreOptions::default()).unwrap();
            let t = Instant::now();
            let rec = reopened
                .recover_serial::<MList<u64>>()
                .unwrap()
                .expect("journal");
            serial_ns = serial_ns.min(t.elapsed().as_nanos() as u64);
            assert_eq!(rec.data.len(), total_ops);

            let reopened = Store::open(dir.clone(), StoreOptions::default()).unwrap();
            let t = Instant::now();
            let rec = reopened.recover::<MList<u64>>().unwrap().expect("journal");
            recover_ns = recover_ns.min(t.elapsed().as_nanos() as u64);
            // Span compaction fuses the occasional adjacent insert pair,
            // so the replayed op count can sit slightly below the
            // requested one; the reconstructed state must be
            // element-for-element complete.
            assert_eq!(rec.data.len(), total_ops);
            replayed = rec.replayed_ops;
        }
        let ops_per_sec = replayed as f64 / (recover_ns as f64 / 1e9);
        let speedup = serial_ns as f64 / recover_ns as f64;
        largest_speedup = speedup;
        eprintln!(
            "recovery @ {total_ops} ops ({commits} commits, {replayed} replayed): \
             journal {build_ns} ns, prepared {recover_ns} ns ({ops_per_sec:.0} ops/s), \
             per-commit apply_log {serial_ns} ns, speedup {speedup:.2}x"
        );
        if ji > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"ops\": {total_ops}, \"commits\": {commits}, \"replayed_ops\": {replayed}, \
             \"journal_ns\": {build_ns}, \"recover_ns\": {recover_ns}, \
             \"serial_recover_ns\": {serial_ns}, \"speedup\": {speedup:.2}, \
             \"replay_ops_per_sec\": {ops_per_sec:.0}}}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ------------------------------------------------------------------
    // Regression floor (halved under --quick: smaller journals, larger
    // share of fixed costs).
    // ------------------------------------------------------------------
    let speedup_floor = if quick { 2.0 } else { 4.0 };
    let speedup_ok = largest_speedup >= speedup_floor;
    let _ = write!(
        json,
        "\n  ],\n  \"floors\": {{\"speedup_floor\": {speedup_floor}, \
         \"speedup\": {largest_speedup:.2}, \"speedup_ok\": {speedup_ok}}}\n}}\n"
    );

    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("bench_recovery: wrote {out_path}"),
        Err(e) => {
            eprintln!("bench_recovery: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    if assert_floors {
        if !speedup_ok {
            eprintln!(
                "bench_recovery: FLOOR VIOLATION: prepared replay speedup over \
                 per-commit apply_log {largest_speedup:.2}x < {speedup_floor}x"
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_recovery: floor holds (speedup {largest_speedup:.2}x >= {speedup_floor}x)"
        );
    }
}
