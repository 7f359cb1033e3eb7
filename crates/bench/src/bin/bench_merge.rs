//! Emit `BENCH_merge.json`: before/after numbers for the rebase fast
//! paths (span compaction and the linear delta transform).
//!
//! Each scenario rebases the same child log against the same committed
//! log three ways — raw (element-wise, the pre-optimization merge path),
//! through `sm_ot::compose::compact` first (the PR-2 grid path,
//! compaction time included), and through `sm_ot::delta::rebase_delta`
//! (the O(m+n) sorted span-set path) — and records wall-clock
//! nanoseconds, op counts, grid sizes, span counts, and which path the
//! merge actually takes (`rebase_delta` declines span-inexpressible logs,
//! which fall back to the grid).
//! Final scenarios time the full `MList::merge` entry point end to end
//! and report its delta/grid rebase split.
//!
//! First, the `delta_fold` rows time the merge memo's counted fold
//! (`from_ops_counted`) against the straight fold (`from_ops_biased`) on
//! both logs of a commit-shaped merge, at 32 to 2 048 edits per log.
//!
//! End-of-file scenarios exercise the merge memo: a 1000-child
//! insert-only `merge_all` through the full runtime against the uncached
//! creation-order refold of the same children (each child rebased by the
//! reference kernel over the whole committed slice, [`refold_merge`]);
//! the same fan-out with deletes mixed in and under a merge condition
//! (dismissed children are never merged); a scaling row — the partitioned
//! (mixed) fan-out at 250 to 2 000 children, `merge_all` nanoseconds per
//! child, which a `merge_all` linear in its children keeps flat; and four
//! children of 70 000 inserts inside one growing run each, merged by
//! plain `merge` against the same refold.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sm-bench --bin bench_merge [-- --quick] [-- --out PATH] [-- --assert-floors]
//! ```
//!
//! `--quick` reduces repetitions for CI smoke runs; `--out` overrides the
//! default output path `BENCH_merge.json`; `--assert-floors` exits
//! non-zero if any scenario's speedup falls below its recorded floor
//! (halved under `--quick` for timing noise) or the scaling row's
//! per-child cost at 2 000 children exceeds [`SCALING_CEILING`] times
//! that at 250 (doubled under `--quick`), so CI catches a change that
//! silently pessimizes a fast path or brings a per-child walk of the
//! whole batch back.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sm_core::{run_with_pool, Pool};
use sm_mergeable::{Leaf, MList, Mergeable};
use sm_netsim::workload::{lcg_positions, Lcg};
use sm_ot::compose::compact;
use sm_ot::delta::{from_ops_biased, from_ops_counted, rebase_delta, GapBias};
use sm_ot::list::ListOp;
use sm_ot::seq::rebase;
use sm_ot::text::TextOp;

/// Speedup floors per scenario: a release run below its floor means a
/// fast path regressed.
const FLOORS: &[(&str, f64)] = &[
    ("contiguous_inserts_500x500", 100.0),
    ("set_churn_500_vs_inserts_200", 20.0),
    ("scattered_inserts_100x100", 5.0),
    ("scattered_inserts_500x500", 10.0),
    ("scattered_mixed_interleaved", 10.0),
    ("scattered_mixed_disjoint_halves", 4.0),
    ("parallel_merge_all_1000", 4.0),
    ("mixed_delete_merge_all_1000", 3.0),
    ("conditional_merge_all_1000", 1.5),
    ("huge_child_split_fuse", 1.2),
    ("delta_fold_128", 1.3),
    ("delta_fold_2048", 8.0),
];

/// Edits per log of the `delta_fold` rows, and the absolute target (ns)
/// for folding both logs with the counted fold, where there is one.
const FOLD_ROWS: [(usize, Option<u64>); 4] = [
    (32, None),
    (128, Some(60_000)),
    (512, None),
    (2_048, Some(2_000_000)),
];

/// Children per row of the partitioned scaling table.
const SCALING_CHILDREN: [usize; 4] = [250, 500, 1000, 2000];

/// Most the `merge_all` cost per child may grow from the first scaling row to
/// the last. A commit that walked the composite from its start read 3x
/// and more here (16 spans per child already merged, three sweeps).
const SCALING_CEILING: f64 = 1.5;

/// Best-of-`iters` wall time of `f`, in nanoseconds.
fn time_ns<R>(iters: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

struct Scenario {
    name: &'static str,
    committed: Vec<ListOp<u64>>,
    incoming: Vec<ListOp<u64>>,
}

fn scenarios() -> Vec<Scenario> {
    // 500 contiguous appends on each side: the headline case, collapses
    // to a 1x1 grid. Base list is 64 elements, so appends start at 64.
    let contiguous = Scenario {
        name: "contiguous_inserts_500x500",
        committed: (0..500).map(|i| ListOp::Insert(64 + i, i as u64)).collect(),
        incoming: (0..500)
            .map(|i| ListOp::Insert(64 + i, 1000 + i as u64))
            .collect(),
    };
    // Overwrite churn: 500 Sets over 4 indices fuse down to 4 ops.
    let churn = Scenario {
        name: "set_churn_500_vs_inserts_200",
        committed: (0..200).map(|i| ListOp::Insert(0, i as u64)).collect(),
        incoming: (0..500).map(|i| ListOp::Set(i % 4, i as u64)).collect(),
    };
    // Scattered inserts that mostly do not fuse: compaction cannot help,
    // so before this PR the merge degraded to the full grid. The delta
    // path sweeps them in one pass.
    let scattered = Scenario {
        name: "scattered_inserts_100x100",
        committed: lcg_positions(100, 64)
            .into_iter()
            .map(|p| ListOp::Insert(p, 7))
            .collect(),
        incoming: lcg_positions(100, 64)
            .into_iter()
            .rev()
            .map(|p| ListOp::Insert(p, 9))
            .collect(),
    };
    // The same shape at 5x the op count: the grid grows 25x, the delta
    // sweep 5x.
    let scattered_large = Scenario {
        name: "scattered_inserts_500x500",
        committed: lcg_positions(500, 64)
            .into_iter()
            .map(|p| ListOp::Insert(p, 7))
            .collect(),
        incoming: lcg_positions(500, 64)
            .into_iter()
            .rev()
            .map(|p| ListOp::Insert(p, 9))
            .collect(),
    };
    // Scattered inserts and deletes fully interleaved over the same
    // region: incoming inserts end up separated from later committed
    // inserts only by deleted units, the collapsed-gap pairs the grid
    // orders by log sequencing. The delta path merges them by position.
    let positions = lcg_positions(500, 3000);
    let mixed = Scenario {
        name: "scattered_mixed_interleaved",
        committed: positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                if i % 2 == 0 {
                    ListOp::Insert(p, i as u64)
                } else {
                    ListOp::Delete(p)
                }
            })
            .collect(),
        incoming: positions
            .iter()
            .rev()
            .enumerate()
            .map(|(i, &p)| {
                if i % 2 == 0 {
                    ListOp::Insert(p / 2, 1000 + i as u64)
                } else {
                    ListOp::Delete(p / 2)
                }
            })
            .collect(),
    };
    // The same insert/delete mix but each side editing its own half of
    // the base — the paper's motivating disjoint-region workload. Every
    // committed insert precedes every incoming one, so no collision is
    // possible and the pair stays on the delta path.
    let disjoint = Scenario {
        name: "scattered_mixed_disjoint_halves",
        committed: positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                if i % 2 == 0 {
                    ListOp::Insert(p / 2, i as u64)
                } else {
                    ListOp::Delete(p / 2)
                }
            })
            .collect(),
        incoming: positions
            .iter()
            .rev()
            .enumerate()
            .map(|(i, &p)| {
                if i % 2 == 0 {
                    ListOp::Insert(1800 + p / 2, 1000 + i as u64)
                } else {
                    ListOp::Delete(1800 + p / 2)
                }
            })
            .collect(),
    };
    vec![
        contiguous,
        churn,
        scattered,
        scattered_large,
        mixed,
        disjoint,
    ]
}

/// What each child of a fan-out records, and how the parent merges.
#[derive(Clone, Copy, PartialEq)]
enum FanoutMode {
    /// Strided inserts only.
    InsertOnly,
    /// Every fourth op is a delete, each child confined to its own
    /// 8-element segment of the base. Disjoint segments keep every
    /// child's insert apart from the others' by a unit nobody deletes.
    Mixed,
    /// Insert-only children merged under [`condition`], which dismisses
    /// a scatter of children out of the middle of the batch.
    Conditional,
    /// Inserts strided over the last ~60 local positions — deep logs
    /// whose delta folds are span-scattered but whose state applies
    /// are cheap tail memmoves, isolating fold time.
    TailInserts,
}

/// The base list of a fan-out. Mixed mode gives every child its own
/// 8-element segment; element `i * 8` of each segment is never edited,
/// so a surviving retain always separates one child's spans from the
/// next child's.
fn fanout_base(children: usize, mode: FanoutMode) -> MList<u64> {
    let base_len = if mode == FanoutMode::Mixed {
        children * 8
    } else {
        64
    };
    MList::from_vec((0..base_len as u64).collect())
}

/// Child `i`'s `ops_per_child` non-fusing edits (shape per `mode`).
fn child_edits(list: &mut MList<u64>, i: u64, ops_per_child: usize, mode: FanoutMode) {
    for j in 0..ops_per_child as u64 {
        let len = list.len();
        match mode {
            FanoutMode::Mixed => {
                // Segment-local strided positions, first segment element
                // untouched. Every fourth op deletes; net growth keeps
                // the segment populated.
                let at = i as usize * 8 + 1 + (j as usize * 3) % 6;
                if j % 4 == 3 {
                    list.remove(at);
                } else {
                    list.insert(at, i * 1000 + j);
                }
            }
            FanoutMode::TailInserts => {
                // Strided over the last ~60 local slots: span-scattered
                // folds, cheap tail applies.
                let window = 60.min(len - 1);
                let at = len - 1 - (j as usize * 13) % window.max(1);
                list.insert(at, i * 1000 + j);
            }
            _ => {
                // Strided positions: consecutive ops never touch, so
                // record-time fusion cannot collapse the log and every
                // merge rebases real spans.
                let at = ((i * 7 + j * 13) as usize) % (len + 1);
                list.insert(at, i * 1000 + j);
            }
        }
    }
}

/// The merge condition of [`FanoutMode::Conditional`]: deterministic on
/// the child's own data, rejects ~5% of children.
fn condition(d: &MList<u64>) -> bool {
    d.to_vec().iter().sum::<u64>() % 257 != 0
}

/// One timed `merge_all` over a scattered fan-out through the runtime:
/// `children` tasks each record [`child_edits`], every completion is
/// allowed to land, and only the merge call is timed. Returns (merge
/// nanoseconds, final state, pool peak workers).
fn fanout_merge_all(
    children: usize,
    ops_per_child: usize,
    mode: FanoutMode,
) -> (u64, Vec<u64>, u64) {
    let pool = Pool::new();
    let stats_pool = pool.clone();
    let done = Arc::new(AtomicUsize::new(0));
    let done_in = Arc::clone(&done);
    let (list, merge_ns) = run_with_pool(fanout_base(children, mode), pool, move |ctx| {
        for i in 0..children as u64 {
            let done = Arc::clone(&done_in);
            ctx.spawn(move |c| {
                child_edits(c.data_mut(), i, ops_per_child, mode);
                done.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
        }
        // The parent is idle between the forks and the merge — the
        // paper's shape. Let every completion event land so the timer
        // measures the merge fold, not child compute (stragglers would
        // merge sequentially either way, blurring the comparison).
        while done.load(Ordering::SeqCst) < children {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        let t = Instant::now();
        if mode == FanoutMode::Conditional {
            ctx.merge_all_with(&condition);
        } else {
            ctx.merge_all();
        }
        t.elapsed().as_nanos() as u64
    });
    (merge_ns, list.to_vec(), stats_pool.stats().peak_workers)
}

/// Merge `kid` into `parent` the way `merge` did before it kept a memo:
/// the reference delta kernel over the whole committed slice since the
/// kid's fork, or the compacted grid where that declines, applied and
/// appended op by op. The baseline the fan-out rows time against.
fn refold_merge(parent: &mut MList<u64>, kid: &MList<u64>) {
    let (p, k) = (parent.versioned(), kid.versioned());
    if k.log().is_empty() {
        return;
    }
    let committed = &p.log()[k.fork_base() - p.log_start()..];
    let delta = (!committed.is_empty())
        .then(|| rebase_delta(k.log(), committed))
        .flatten();
    let run = match delta {
        Some((run, _)) => run,
        None => rebase(&compact(k.log()), &compact(committed)),
    };
    for op in run {
        parent.versioned_mut().record_validated(op);
    }
}

/// The same fan-out outside the runtime, children folded in creation
/// order: by plain `merge` (`memo`) or by [`refold_merge`]. Returns (fold
/// nanoseconds, state).
fn fanout_fold(
    children: usize,
    ops_per_child: usize,
    mode: FanoutMode,
    memo: bool,
) -> (u64, Vec<u64>) {
    let mut parent = fanout_base(children, mode);
    let kids: Vec<MList<u64>> = (0..children as u64)
        .map(|i| {
            let mut kid = parent.fork();
            child_edits(&mut kid, i, ops_per_child, mode);
            kid
        })
        .collect();
    let t = Instant::now();
    for kid in &kids {
        if mode == FanoutMode::Conditional && !condition(kid) {
            continue;
        }
        if memo {
            parent.merge(kid).unwrap();
        } else {
            refold_merge(&mut parent, kid);
        }
    }
    (t.elapsed().as_nanos() as u64, parent.to_vec())
}

/// `k` text edits in a `commit_shared` commit's shape, drawn from `seed`:
/// 1-3-char inserts and 1-2-char deletes, three to one, at positions
/// below 4 032 of a 4 096-char base that they keep at least that long.
fn commit_edits(k: usize, seed: u64) -> Vec<TextOp> {
    let mut lcg = Lcg::new(seed);
    let mut len = 4_096;
    let mut edits = Vec::with_capacity(k);
    for _ in 0..k {
        let pos = lcg.next_below(4_032);
        if lcg.next_below(4) == 0 {
            let n = 1 + lcg.next_below(2);
            len -= n;
            edits.push(TextOp::delete(pos, n));
        } else {
            let n = 1 + lcg.next_below(3);
            len += n;
            let text = (0..n).map(|_| (b'a' + lcg.next_below(26) as u8) as char);
            edits.push(TextOp::insert(pos, text.collect::<String>()));
        }
        assert!(len >= 4_032, "a delete past the end of the document");
    }
    edits
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
        .unwrap_or_else(|| "BENCH_merge.json".to_string());
    let iters = if quick { 3 } else { 25 };
    let mut speedups: Vec<(String, f64)> = Vec::new();

    let mut json = String::from("{\n  \"bench\": \"merge\",\n");
    json.push_str(&sm_bench::env_json_line(quick));
    // The fold of both logs of a commit-shaped merge (ROADMAP item 2's
    // probe): the counted fold the memo runs against the straight fold
    // `rebase_delta` runs, which scans from span zero per edit. Timed
    // first, as a program that does only this would see it: after the
    // fan-out rows below, both folds read up to twice as slow, which the
    // speedup absorbs but the absolute targets do not.
    let mut fold_rows = Vec::new();
    for (k, target) in FOLD_ROWS {
        let incoming = commit_edits(k, 0x5eed_0000 + k as u64);
        let committed = commit_edits(k, 0x5eed_1000 + k as u64);
        let fold_both = |fold: fn(&[TextOp], GapBias) -> _| {
            let inc = fold(&incoming, GapBias::End);
            let com = fold(&committed, GapBias::Start);
            (inc, com)
        };
        assert!(
            fold_both(from_ops_counted) == fold_both(from_ops_biased),
            "delta_fold_{k}: the counted fold diverged from the straight fold"
        );
        // Best of as many reps as 2 048 edits' worth of folds, so the short
        // rows time warm loops too.
        let reps = iters * (2_048 / k);
        let straight_ns = time_ns(reps, || fold_both(from_ops_biased));
        let counted_ns = time_ns(reps, || fold_both(from_ops_counted));
        let speedup = straight_ns as f64 / counted_ns.max(1) as f64;
        let target = match target {
            Some(t) => format!(
                "target {t} ns {}",
                if counted_ns <= t { "met" } else { "NOT met" }
            ),
            None => "no target".to_string(),
        };
        eprintln!(
            "delta_fold_{k}: straight {straight_ns} ns -> counted {counted_ns} ns ({speedup:.2}x), \
             {target}"
        );
        fold_rows.push(format!(
            "{{\"name\": \"delta_fold_{k}\", \"edits_per_log\": {k}, \"straight_ns\": {straight_ns}, \
             \"counted_ns\": {counted_ns}, \"speedup\": {speedup:.2}, \"target\": \"{target}\"}}"
        ));
        speedups.push((format!("delta_fold_{k}"), speedup));
    }
    let _ = writeln!(json, "  \"delta_fold\": [{}],", fold_rows.join(", "));

    json.push_str("  \"rebase_scenarios\": [\n");

    for (si, sc) in scenarios().iter().enumerate() {
        let raw_ns = time_ns(iters, || rebase(&sc.incoming, &sc.committed));
        let compacted_ns = time_ns(iters, || {
            let i = compact(&sc.incoming);
            let c = compact(&sc.committed);
            rebase(&i, &c)
        });
        let ic = compact(&sc.incoming);
        let cc = compact(&sc.committed);
        // The delta path as the merge runs it: fold, then sweep.
        // `None` means this pair falls back to the grid at merge time.
        let delta_result = rebase_delta(&sc.incoming, &sc.committed);
        let (delta_ns, delta_spans, path) = match &delta_result {
            Some((_, st)) => (
                time_ns(iters, || rebase_delta(&sc.incoming, &sc.committed)),
                st.incoming_spans + st.committed_spans,
                "delta",
            ),
            None => (0, 0, "grid"),
        };
        // What the merge pays after this PR: the delta sweep when the
        // pair qualifies, the compacted grid otherwise.
        let after_ns = if path == "delta" {
            delta_ns
        } else {
            compacted_ns
        };
        let speedup = raw_ns as f64 / after_ns.max(1) as f64;
        let speedup_compacted = raw_ns as f64 / compacted_ns.max(1) as f64;
        eprintln!(
            "{}: raw {} ns ({}x{} grid) -> compacted {} ns ({}x{} grid) -> {} {} ns ({} spans), {:.1}x",
            sc.name,
            raw_ns,
            sc.incoming.len(),
            sc.committed.len(),
            compacted_ns,
            ic.len(),
            cc.len(),
            path,
            after_ns,
            delta_spans,
            speedup
        );
        if si > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"raw_ns\": {}, \"compacted_ns\": {}, \"delta_ns\": {}, \
             \"path\": \"{}\", \"speedup\": {:.2}, \"speedup_compacted\": {:.2}, \
             \"incoming_ops\": {}, \"committed_ops\": {}, \
             \"incoming_ops_compacted\": {}, \"committed_ops_compacted\": {}, \
             \"grid_cells_raw\": {}, \"grid_cells_compacted\": {}, \"delta_spans\": {}}}",
            sc.name,
            raw_ns,
            compacted_ns,
            delta_ns,
            path,
            speedup,
            speedup_compacted,
            sc.incoming.len(),
            sc.committed.len(),
            ic.len(),
            cc.len(),
            sc.incoming.len() * sc.committed.len(),
            ic.len() * cc.len(),
            delta_spans,
        );
        speedups.push((sc.name.to_string(), speedup));
    }
    json.push_str("\n  ],\n");

    // End-to-end merge: 500 appends on each side through the MList entry
    // point (record-time fusion + pre-rebase compaction both active).
    let mut parent = MList::from_vec((0..64u64).collect());
    let mut child = parent.fork();
    for i in 0..500u64 {
        child.push(i);
        parent.push(1000 + i);
    }
    let merge_ns = time_ns(iters, || {
        let mut p = parent.clone();
        p.merge(&child).unwrap()
    });
    let stats = parent.clone().merge(&child).unwrap();
    eprintln!(
        "merge_path_500x500: {} ns, {} delta / {} grid rebases, grid {} (raw would be {})",
        merge_ns,
        stats.delta_rebases,
        stats.grid_rebases,
        stats.grid_cells,
        stats.child_ops * stats.committed_ops
    );
    let _ = writeln!(
        json,
        "  \"merge_path\": {{\"name\": \"mlist_merge_500x500\", \"merge_ns\": {}, \
         \"child_ops\": {}, \"child_ops_compacted\": {}, \
         \"committed_ops\": {}, \"committed_ops_compacted\": {}, \
         \"grid_cells\": {}, \"grid_cells_raw\": {}, \
         \"delta_rebases\": {}, \"grid_rebases\": {}, \"delta_spans\": {}}},",
        merge_ns,
        stats.child_ops,
        stats.child_ops_compacted,
        stats.committed_ops,
        stats.committed_ops_compacted,
        stats.grid_cells,
        stats.child_ops * stats.committed_ops,
        stats.delta_rebases,
        stats.grid_rebases,
        stats.delta_spans,
    );

    // End-to-end scattered merge: 300 scattered inserts on each side
    // through the MList entry point — the case the delta path exists
    // for, unreachable by record-time fusion or compaction.
    let mut parent = MList::from_vec((0..64u64).collect());
    let mut child = parent.fork();
    for (i, p) in lcg_positions(300, 64).into_iter().enumerate() {
        child.insert(p, i as u64);
        parent.insert(63 - p, 1000 + i as u64);
    }
    let merge_ns = time_ns(iters, || {
        let mut p = parent.clone();
        p.merge(&child).unwrap()
    });
    let stats = parent.clone().merge(&child).unwrap();
    eprintln!(
        "merge_path_scattered_300x300: {} ns, {} delta / {} grid rebases, {} spans (grid would be {} cells)",
        merge_ns,
        stats.delta_rebases,
        stats.grid_rebases,
        stats.delta_spans,
        stats.child_ops * stats.committed_ops
    );
    let _ = writeln!(
        json,
        "  \"merge_path_scattered\": {{\"name\": \"mlist_merge_scattered_300x300\", \"merge_ns\": {}, \
         \"child_ops\": {}, \"committed_ops\": {}, \"grid_cells\": {}, \"grid_cells_raw\": {}, \
         \"delta_rebases\": {}, \"grid_rebases\": {}, \"delta_spans\": {}}}",
        merge_ns,
        stats.child_ops,
        stats.committed_ops,
        stats.grid_cells,
        stats.child_ops * stats.committed_ops,
        stats.delta_rebases,
        stats.grid_rebases,
        stats.delta_spans,
    );
    json.push_str(",\n");

    // merge_all: the same scattered fan-out refolded per child (the
    // uncached creation-order fold) and merged through the runtime, whose
    // merges continue from the memo. The refold folds the whole committed
    // suffix per child; the memo grows the committed composite
    // incrementally. The mixed fan-out adds a delete as every fourth
    // child op; the conditional one rejects ~5% of children, which are
    // never merged.
    let children = if quick { 200 } else { 1000 };
    let ops_per_child = 4;
    for (key, name, mode) in [
        (
            "parallel_merge_all",
            "parallel_merge_all_1000",
            FanoutMode::InsertOnly,
        ),
        (
            "mixed_delete_merge_all",
            "mixed_delete_merge_all_1000",
            FanoutMode::Mixed,
        ),
        (
            "conditional_merge_all",
            "conditional_merge_all_1000",
            FanoutMode::Conditional,
        ),
    ] {
        let (refold_ns, refold_state) = fanout_fold(children, ops_per_child, mode, false);
        let (merge_ns, merged_state, peak_workers) =
            fanout_merge_all(children, ops_per_child, mode);
        assert_eq!(
            refold_state, merged_state,
            "{name}: merge_all diverged from the uncached refold"
        );
        let speedup = refold_ns as f64 / merge_ns.max(1) as f64;
        eprintln!(
            "{name} ({children} children x {ops_per_child} ops): \
             refold {refold_ns} ns -> merge_all {merge_ns} ns ({speedup:.2}x, peak {peak_workers} workers)"
        );
        let _ = writeln!(
            json,
            "  \"{key}\": {{\"name\": \"{name}\", \
             \"children\": {children}, \"ops_per_child\": {ops_per_child}, \
             \"refold_ns\": {refold_ns}, \"merge_all_ns\": {merge_ns}, \"speedup\": {speedup:.2}, \
             \"peak_workers\": {peak_workers}, \"states_identical\": true}},"
        );
        speedups.push((name.to_string(), speedup));
    }

    // Scaling: the partitioned fan-out — every child edits its own
    // segment, in creation order — at four widths through the runtime.
    // Linear in the children means a flat cost per child. Best of a few
    // rounds over all four widths, so that a slow spell of the box (the
    // single-shot rows above read two speeds) falls on every width alike.
    let mut scaling = SCALING_CHILDREN.map(|n| (n, u64::MAX));
    for _ in 0..if quick { 3 } else { 9 } {
        for (n, best) in &mut scaling {
            *best = (*best).min(fanout_merge_all(*n, 8, FanoutMode::Mixed).0);
        }
    }
    let per_child = |&(n, ns): &(usize, u64)| ns as f64 / n as f64;
    let growth = per_child(&scaling[3]) / per_child(&scaling[0]).max(1.0);
    let rows: Vec<String> = scaling
        .iter()
        .map(|row| {
            let (n, ns) = *row;
            eprintln!(
                "partitioned_fanout_scaling: {n} children x 8 ops merge_all {ns} ns, {:.0} ns per child",
                per_child(row)
            );
            format!(
                "{{\"children\": {n}, \"merge_all_ns\": {ns}, \"ns_per_child\": {:.0}}}",
                per_child(row)
            )
        })
        .collect();
    let _ = writeln!(
        json,
        "  \"partitioned_fanout_scaling\": {{\"name\": \"partitioned_fanout_scaling\", \
         \"ops_per_child\": 8, \"rows\": [{}], \"per_child_growth\": {growth:.2}, \
         \"ceiling\": {SCALING_CEILING}}},",
        rows.join(", ")
    );

    // Huge logs: four children of 70 000 inserts, each inside the last 60
    // units of one growing run, merged by plain `merge` (each log takes
    // the memo's counted fold, which splits the run in place, and the
    // later children continue from the memo) against the uncached refold
    // (one straight fold per log and per slice).
    let split_children = 4;
    let split_ops = 70_000;
    let tails = FanoutMode::TailInserts;
    let (refold_ns, refold_state) = fanout_fold(split_children, split_ops, tails, false);
    let (merge_ns, merged_state) = fanout_fold(split_children, split_ops, tails, true);
    assert_eq!(
        refold_state, merged_state,
        "huge_child_split_fuse: the merge diverged from the uncached refold"
    );
    let split_speedup = refold_ns as f64 / merge_ns.max(1) as f64;
    eprintln!(
        "huge_child_split_fuse ({split_children} children x {split_ops} ops): \
         refold {refold_ns} ns -> merge {merge_ns} ns ({split_speedup:.2}x)"
    );
    let _ = writeln!(
        json,
        "  \"huge_child_split_fuse\": {{\"name\": \"huge_child_split_fuse\", \
         \"children\": {split_children}, \"ops_per_child\": {split_ops}, \
         \"refold_ns\": {refold_ns}, \"merge_ns\": {merge_ns}, \"speedup\": {split_speedup:.2}, \
         \"states_identical\": true}}"
    );
    speedups.push(("huge_child_split_fuse".to_string(), split_speedup));
    json.push_str("}\n");

    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("bench_merge: wrote {out_path}"),
        Err(e) => {
            eprintln!("bench_merge: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    // The bench-smoke guard, checked after the JSON lands so CI keeps the
    // artifact from a failing run: every recorded scenario must clear its
    // speedup floor (halved under --quick: fewer reps, more noise).
    if assert_floors {
        let relax = if quick { 0.5 } else { 1.0 };
        let mut failed = false;
        for (name, floor) in FLOORS {
            let Some((_, got)) = speedups.iter().find(|(n, _)| n == name) else {
                eprintln!("floor check: scenario {name} missing from this run");
                failed = true;
                continue;
            };
            let bar = floor * relax;
            if *got < bar {
                eprintln!("floor check FAILED: {name} at {got:.2}x, floor {bar:.2}x");
                failed = true;
            } else {
                eprintln!("floor check ok: {name} at {got:.2}x (floor {bar:.2}x)");
            }
        }
        let ceiling = SCALING_CEILING / relax;
        if growth > ceiling {
            eprintln!(
                "floor check FAILED: partitioned_fanout_scaling grows {growth:.2}x per child \
                 from {} to {} children, ceiling {ceiling:.2}x",
                SCALING_CHILDREN[0], SCALING_CHILDREN[3]
            );
            failed = true;
        } else {
            eprintln!(
                "floor check ok: partitioned_fanout_scaling grows {growth:.2}x per child \
                 (ceiling {ceiling:.2}x)"
            );
        }
        if failed {
            std::process::exit(1);
        }
    }
}
