//! Ablation: merge cost scaling — the sequence rebase is O(child_ops ×
//! parent_ops) pair transforms, so the paper's "faster merging algorithms"
//! future work (log compaction, `sm_ot::compose`) pays off superlinearly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sm_mergeable::{MList, Mergeable};
use sm_ot::compose::compact;
use sm_ot::list::ListOp;
use sm_ot::seq::rebase;

/// Build a parent with `parent_ops` recorded ops and a fork with
/// `child_ops` recorded ops, ready to merge.
fn setup(parent_ops: usize, child_ops: usize) -> (MList<u64>, MList<u64>) {
    let mut parent = MList::from_vec((0..64u64).collect());
    let mut child = parent.fork();
    for i in 0..child_ops {
        child.push(i as u64);
    }
    for i in 0..parent_ops {
        parent.push(1000 + i as u64);
    }
    (parent, child)
}

fn bench_merge_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_cost");
    for (p, ch) in [
        (10usize, 10usize),
        (100, 10),
        (10, 100),
        (100, 100),
        (1000, 100),
        (100, 1000),
    ] {
        group.bench_with_input(
            BenchmarkId::new("rebase_grid", format!("p{p}_c{ch}")),
            &(p, ch),
            |b, &(p, ch)| {
                b.iter_batched(
                    || setup(p, ch),
                    |(mut parent, child)| parent.merge(&child).unwrap(),
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_span_rebase(c: &mut Criterion) {
    // The headline span case: N contiguous appends on each side. Raw
    // rebase pays an N×N transform grid; compaction collapses each side
    // to one `InsertRun`, so the grid is 1×1. Compaction time included.
    let mut group = c.benchmark_group("merge_span");
    for n in [100usize, 500, 1000] {
        let committed: Vec<ListOp<u64>> =
            (0..n).map(|i| ListOp::Insert(64 + i, i as u64)).collect();
        let incoming: Vec<ListOp<u64>> = (0..n)
            .map(|i| ListOp::Insert(64 + i, 1000 + i as u64))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("contiguous_raw", n),
            &(&committed, &incoming),
            |b, (committed, incoming)| b.iter(|| rebase(incoming, committed)),
        );
        group.bench_with_input(
            BenchmarkId::new("contiguous_compacted", n),
            &(&committed, &incoming),
            |b, (committed, incoming)| {
                b.iter(|| {
                    let i = compact(incoming);
                    let c = compact(committed);
                    rebase(&i, &c)
                })
            },
        );
    }
    group.finish();
}

fn bench_compaction_payoff(c: &mut Criterion) {
    // A log full of Set churn on the same few indices compacts massively;
    // measure rebase cost with and without pre-compaction.
    let mut group = c.benchmark_group("merge_compaction");
    let committed: Vec<ListOp<u64>> = (0..200).map(|i| ListOp::Insert(0, i as u64)).collect();
    let child_log: Vec<ListOp<u64>> = (0..500).map(|i| ListOp::Set(i % 4, i as u64)).collect();

    group.bench_function("rebase_raw_500_ops", |b| {
        b.iter(|| rebase(&child_log, &committed));
    });
    group.bench_function("rebase_compacted", |b| {
        b.iter(|| {
            let compacted = compact(&child_log);
            rebase(&compacted, &committed)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_merge_scaling,
    bench_span_rebase,
    bench_compaction_payoff
);
criterion_main!(benches);
