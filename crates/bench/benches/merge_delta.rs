//! Ablation: the linear delta-rebase path against the pairwise grid on
//! scattered logs — the workload span compaction cannot help with.
//!
//! `delta_rebase` covers the whole fast path as the merge runs it: fold
//! both logs into sorted span-sets, transform in one sweep, and
//! re-materialize the incoming ops. `grid_rebase` is the same work on the O(m·n) grid. The `fold`
//! group isolates the per-op splice cost of `from_ops`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sm_netsim::workload::lcg_positions;
use sm_ot::delta::{from_ops, rebase_delta};
use sm_ot::list::ListOp;
use sm_ot::seq::rebase;
use sm_ot::text::TextOp;

fn scattered_list(n: usize, rev: bool, value: u64) -> Vec<ListOp<u64>> {
    let mut pos = lcg_positions(n, 64);
    if rev {
        pos.reverse();
    }
    pos.into_iter().map(|p| ListOp::Insert(p, value)).collect()
}

fn scattered_text(n: usize, rev: bool, s: &str) -> Vec<TextOp> {
    let mut pos = lcg_positions(n, 64);
    if rev {
        pos.reverse();
    }
    pos.into_iter().map(|p| TextOp::insert(p, s)).collect()
}

fn bench_scattered_rebase(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_delta_scattered");
    for n in [50usize, 100, 200, 400] {
        group.throughput(Throughput::Elements(n as u64));
        let committed = scattered_list(n, false, 7);
        let incoming = scattered_list(n, true, 9);
        assert!(
            rebase_delta(&incoming, &committed).is_some(),
            "insert-only scattered logs must take the delta path"
        );
        group.bench_with_input(BenchmarkId::new("delta_rebase", n), &n, |b, _| {
            b.iter(|| rebase_delta(black_box(&incoming), black_box(&committed)))
        });
        group.bench_with_input(BenchmarkId::new("grid_rebase", n), &n, |b, _| {
            b.iter(|| rebase(black_box(&incoming), black_box(&committed)))
        });
    }
    group.finish();
}

fn bench_text_rebase(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_delta_text");
    for n in [100usize, 400] {
        group.throughput(Throughput::Elements(n as u64));
        let committed = scattered_text(n, false, "ab");
        let incoming = scattered_text(n, true, "xy");
        group.bench_with_input(BenchmarkId::new("delta_rebase", n), &n, |b, _| {
            b.iter(|| rebase_delta(black_box(&incoming), black_box(&committed)))
        });
        group.bench_with_input(BenchmarkId::new("grid_rebase", n), &n, |b, _| {
            b.iter(|| rebase(black_box(&incoming), black_box(&committed)))
        });
    }
    group.finish();
}

fn bench_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_delta_fold");
    for n in [100usize, 400] {
        group.throughput(Throughput::Elements(n as u64));
        let ops = scattered_list(n, false, 7);
        group.bench_with_input(BenchmarkId::new("from_ops_list", n), &n, |b, _| {
            b.iter(|| from_ops(black_box(&ops)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scattered_rebase,
    bench_text_rebase,
    bench_fold
);
criterion_main!(benches);
