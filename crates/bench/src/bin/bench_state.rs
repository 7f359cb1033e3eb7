//! Emit `BENCH_state.json`: before/after numbers for the chunked state
//! backends (PR: Rope / ChunkTree tentpole).
//!
//! Three measurements per document size (10^4, 10^5, 10^6 chars/elems):
//!
//! * `apply` — apply 1 000 rebased, scattered edits to the document,
//!   chunked backend (`Rope` / `ChunkTree<u64>`) vs the scalar reference
//!   (`String` via `TextOp::apply_str` / `Vec<u64>` via
//!   `ListOp::apply_vec`). This is the merge hot path: the acceptance
//!   criterion is ≥ 10× at 10^6 chars.
//! * `cow` — fork a `Versioned`-style clone and make ONE edit; report how
//!   many bytes/elements of the state are unshared afterwards. Under
//!   chunked CoW this is one leaf plus a path, not the whole document.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sm-bench --bin bench_state [-- --quick] [-- --out PATH]
//! ```
//!
//! `--quick` reduces repetitions and skips the 10^6 size for CI smoke
//! runs; `--out` overrides the default output path `BENCH_state.json`.
//! The `env` block records where the numbers were taken
//! (`sm_bench::env_json_line`).

use std::fmt::Write as _;
use std::time::Instant;

use sm_netsim::workload::lcg_positions;
use sm_ot::list::ListOp;
use sm_ot::state::{ChunkTree, Rope};
use sm_ot::text::TextOp;
use sm_ot::Operation;

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

/// A 1000-op edit script shaped like a rebased merge log: scattered
/// inserts with interleaved short deletes, all positions valid for a
/// document that starts at `size` and only grows-or-shrinks slightly.
fn text_script(size: usize, ops: usize) -> Vec<TextOp> {
    lcg_positions(ops, size - 8)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            if i % 4 == 3 {
                TextOp::delete(p, 2)
            } else {
                TextOp::insert(p, "ab")
            }
        })
        .collect()
}

fn list_script(size: usize, ops: usize) -> Vec<ListOp<u64>> {
    lcg_positions(ops, size - 8)
        .into_iter()
        .enumerate()
        .map(|(i, p)| match i % 4 {
            0 => ListOp::Insert(p, i as u64),
            1 => ListOp::InsertRun(p, vec![1, 2, 3]),
            2 => ListOp::Set(p, 9),
            _ => ListOp::DeleteRange(p, 2),
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_state.json".to_string());
    let iters = if quick { 3 } else { 15 };
    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    const OPS: usize = 1_000;

    let mut json = String::from("{\n  \"bench\": \"state\",\n");
    json.push_str(&sm_bench::env_json_line(quick));
    json.push_str("  \"text_apply\": [\n");

    for (si, &size) in sizes.iter().enumerate() {
        let base_string: String = "abcdefgh".chars().cycle().take(size).collect();
        let base_rope = Rope::from(base_string.as_str());
        let script = text_script(size, OPS);

        let rope_ns = time_ns(iters, || {
            let mut r = base_rope.clone();
            for op in &script {
                op.apply(&mut r).unwrap();
            }
            r.char_len()
        });
        let string_ns = time_ns(iters, || {
            let mut s = base_string.clone();
            for op in &script {
                op.apply_str(&mut s).unwrap();
            }
            s.len()
        });
        let speedup = string_ns as f64 / rope_ns.max(1) as f64;
        eprintln!(
            "text apply {OPS} ops @ {size}: rope {rope_ns} ns, string {string_ns} ns, {speedup:.1}x"
        );
        if si > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"chars\": {size}, \"ops\": {OPS}, \"rope_ns\": {rope_ns}, \
             \"string_ns\": {string_ns}, \"speedup\": {speedup:.2}}}"
        );
    }
    json.push_str("\n  ],\n  \"list_apply\": [\n");

    for (si, &size) in sizes.iter().enumerate() {
        let base_vec: Vec<u64> = (0..size as u64).collect();
        let base_tree = ChunkTree::from_vec(base_vec.clone());
        let script = list_script(size, OPS);

        let tree_ns = time_ns(iters, || {
            let mut t = base_tree.clone();
            for op in &script {
                op.apply(&mut t).unwrap();
            }
            t.len()
        });
        let vec_ns = time_ns(iters, || {
            let mut v = base_vec.clone();
            for op in &script {
                op.apply_vec(&mut v).unwrap();
            }
            v.len()
        });
        let speedup = vec_ns as f64 / tree_ns.max(1) as f64;
        eprintln!(
            "list apply {OPS} ops @ {size}: tree {tree_ns} ns, vec {vec_ns} ns, {speedup:.1}x"
        );
        if si > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"elems\": {size}, \"ops\": {OPS}, \"tree_ns\": {tree_ns}, \
             \"vec_ns\": {vec_ns}, \"speedup\": {speedup:.2}}}"
        );
    }
    json.push_str("\n  ],\n  \"cow_fork\": [\n");

    // Fork + single edit: how much of the state does one edit actually
    // copy? (The scalar baseline copies everything: `size` bytes/elems.)
    for (si, &size) in sizes.iter().enumerate() {
        let base: String = "abcdefgh".chars().cycle().take(size).collect();
        let parent = Rope::from(base.as_str());
        let mut child = parent.clone();
        child.insert(size / 2, "X");
        let unshared = child.unshared_bytes(&parent);

        let lbase: Vec<u64> = (0..size as u64).collect();
        let lparent = ChunkTree::from_vec(lbase);
        let mut lchild = lparent.clone();
        lchild.insert(size / 2, 7);
        let lunshared = lchild.unshared_elems(&lparent);

        eprintln!(
            "cow fork+1edit @ {size}: rope unshared {unshared} bytes (deep copy {}), \
             tree unshared {lunshared} elems",
            child.byte_len()
        );
        if si > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"size\": {size}, \"rope_unshared_bytes\": {unshared}, \
             \"rope_total_bytes\": {}, \"tree_unshared_elems\": {lunshared}, \
             \"tree_total_elems\": {}}}",
            child.byte_len(),
            lchild.len(),
        );
    }
    json.push_str("\n  ]\n}\n");

    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("bench_state: wrote {out_path}"),
        Err(e) => {
            eprintln!("bench_state: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
