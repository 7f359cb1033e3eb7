//! `merge_fanout`: one `run_with_pool` that spawns a wide fan-out of
//! insert-only children, `merge_all`s them, then does the same with
//! mixed insert/delete children — `sm-core`'s pool and task machinery
//! and `sm_mergeable::parallel`'s staged lanes do all the work; there is
//! no server, store, codec or net on this path.
//!
//! Every child edits only its own block of the base list and never the
//! block's first element, so a surviving element always separates one
//! child's edits from the next child's: the staged lanes are measured,
//! not their serial fallback.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use spawn_merge::{run_with_pool, MList, Mergeable, Pool};

use crate::gen::{state_digest, Fnv, Lcg};
use crate::harness::{Failures, Layers, Workload};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Elements of the base list.
    pub base_len: usize,
    /// Children per fan-out (there are two fan-outs per op).
    pub children: usize,
    /// Edits each child makes inside its own block.
    pub ops_per_child: usize,
    /// Timed ops per round.
    pub ops_per_round: usize,
}

pub const PARAMS: Params = Params {
    base_len: 2048,
    children: 128,
    ops_per_child: 8,
    ops_per_round: 20,
};

#[derive(Debug, Clone, Copy)]
enum ChildOp {
    Insert(usize, u64),
    Remove(usize),
}

type Script = Arc<Vec<Vec<ChildOp>>>;

fn apply(list: &mut MList<u64>, ops: &[ChildOp]) {
    for op in ops {
        match *op {
            ChildOp::Insert(at, value) => list.insert(at, value),
            ChildOp::Remove(at) => {
                list.remove(at);
            }
        }
    }
}

const MERGE_SPANS: [&str; 2] = ["core.merge_all_insert", "core.merge_all_mixed"];

pub struct MergeFanout {
    p: Params,
    values: Vec<u64>,
    /// Per fan-out, per child: its edits in its fork's coordinates.
    phases: [Script; 2],
    input_digest: u64,
    next_op: u64,
    base: Option<MList<u64>>,
    pool: Option<Pool>,
    results: Vec<u64>,
}

impl MergeFanout {
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, PARAMS)
    }

    pub fn with_params(seed: u64, p: Params) -> Self {
        let mut lcg = Lcg::stream(seed, 0xfa40);
        let values: Vec<u64> = (0..p.base_len).map(|_| lcg.next()).collect();
        let block = p.base_len / p.children;
        assert!(
            block >= 2 * p.ops_per_child,
            "blocks too small for the edits"
        );
        // Fan-out 1 inserts only, so fan-out 2 finds every block grown
        // by `ops_per_child`. Edits stay in slots 1..=ops_per_child of
        // the block: never slot 0, never past the block's end. The
        // slots follow a fixed stride, rotated per child from a
        // seed-drawn offset, so consecutive edits never touch (nothing
        // fuses at record time) and the *shape* of the work — ops
        // rebased, chunks copied — is the same for every seed; the seed
        // decides the values and which child gets which rotation.
        assert!(
            !p.ops_per_child.is_multiple_of(3),
            "the stride must visit every slot"
        );
        let rotation = lcg.below(p.ops_per_child);
        let slot = |child: usize, j: usize| 1 + (j * 3 + child + rotation) % p.ops_per_child;
        let insert_only: Vec<Vec<ChildOp>> = (0..p.children)
            .map(|i| {
                (0..p.ops_per_child)
                    .map(|j| ChildOp::Insert(i * block + slot(i, j), lcg.next()))
                    .collect()
            })
            .collect();
        let grown = block + p.ops_per_child;
        let mixed: Vec<Vec<ChildOp>> = (0..p.children)
            .map(|i| {
                (0..p.ops_per_child)
                    .map(|j| {
                        let at = i * grown + slot(i, j);
                        if j % 4 == 3 {
                            ChildOp::Remove(at)
                        } else {
                            ChildOp::Insert(at, lcg.next())
                        }
                    })
                    .collect()
            })
            .collect();

        let mut digest = Fnv::default();
        for v in &values {
            digest.u64(*v);
        }
        for op in insert_only.iter().chain(&mixed).flatten() {
            match *op {
                ChildOp::Insert(at, v) => digest.u64(at as u64).u64(v),
                ChildOp::Remove(at) => digest.u64(at as u64).u64(u64::MAX),
            };
        }
        MergeFanout {
            p,
            values,
            phases: [Arc::new(insert_only), Arc::new(mixed)],
            input_digest: digest.0,
            next_op: 0,
            base: None,
            pool: None,
            results: Vec::new(),
        }
    }

    /// One op: both fan-outs inside one `run_with_pool`. Returns the
    /// duration and the merged list, or `None` for an unmerged child.
    fn op(&self, t: &mut Tracer) -> (u64, Option<MList<u64>>) {
        let data = self.base.as_ref().expect("set-up ran").clone();
        let pool = self.pool.as_ref().expect("set-up ran").clone();
        let children = self.p.children;
        let span = t.begin("core.run");
        let t0 = Instant::now();
        let (list, all_merged) = run_with_pool(data, pool, |ctx| {
            let mut all_merged = true;
            for (script, merge_span) in self.phases.iter().zip(MERGE_SPANS) {
                let s = t.begin("core.spawn");
                let (tx, rx) = mpsc::channel();
                for i in 0..children {
                    let script = Arc::clone(script);
                    let tx = tx.clone();
                    ctx.spawn(move |child| {
                        apply(child.data_mut(), &script[i]);
                        let _ = tx.send(());
                        Ok(())
                    });
                }
                t.end(s);
                // `merge_all` stages only completions already in hand, so
                // the fan-out is merged once every child has reported.
                let s = t.begin("core.children_done");
                for _ in 0..children {
                    let _ = rx.recv();
                }
                t.end(s);
                let s = t.begin(merge_span);
                let report = ctx.merge_all();
                t.end(s);
                all_merged &= report.merged_count() == children && report.all_merged();
            }
            all_merged
        });
        let took = t0.elapsed().as_nanos() as u64;
        t.end(span);
        (took, all_merged.then_some(list))
    }

    /// The honest baseline: the same children folded by plain `merge`
    /// in creation order. Returns the fold's nanoseconds and its state.
    fn sequential_fold(&self) -> Result<(u64, MList<u64>), String> {
        let mut parent = self.base.as_ref().expect("set-up ran").clone();
        let mut fold_ns = 0u64;
        for script in &self.phases {
            let kids: Vec<MList<u64>> = script
                .iter()
                .map(|ops| {
                    let mut kid = parent.fork();
                    apply(&mut kid, ops);
                    kid
                })
                .collect();
            let t0 = Instant::now();
            for kid in &kids {
                parent.merge(kid).map_err(|e| e.to_string())?;
            }
            fold_ns += t0.elapsed().as_nanos() as u64;
        }
        Ok((fold_ns, parent))
    }
}

impl Workload for MergeFanout {
    fn name(&self) -> &'static str {
        "merge_fanout"
    }

    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn params(&self) -> String {
        format!("{:?}", self.p)
    }

    /// Base build + `Pool::new` + one warm-up op.
    fn setup(&mut self, _t: &mut Tracer, f: &mut Failures) {
        self.base = Some(MList::from_vec(self.values.clone()));
        self.pool = Some(Pool::new());
        self.results.clear();
        if self.op(&mut Tracer::off()).1.is_none() {
            f.fail(|| "warm-up op left a child unmerged".into());
        }
    }

    fn ops(&mut self, t: &mut Tracer, ops: &mut Vec<u64>, f: &mut Failures) {
        for _ in 0..self.p.ops_per_round {
            t.set_op(self.next_op);
            self.next_op += 1;
            f.attempt();
            match self.op(t) {
                (took, Some(list)) => {
                    ops.push(took);
                    self.results.push(state_digest(&list));
                }
                (_, None) => f.fail(|| "a child was left unmerged".into()),
            }
        }
    }

    fn finish(&mut self, _t: &mut Tracer, layers: &mut Layers, f: &mut Failures) -> u64 {
        let stats = self.pool.as_ref().expect("set-up ran").stats();
        layers.sample("core.pool_peak_workers", stats.peak_workers as f64);
        layers.sample("core.pool_threads_created", stats.threads_created as f64);
        layers.sample(
            "core.pool_queue_wait_ns_per_job",
            stats.queue_wait_nanos as f64 / stats.jobs_executed.max(1) as f64,
        );
        let digest = match self.sequential_fold() {
            Ok((fold_ns, list)) => {
                layers.sample("mergeable.seq_fold_ns", fold_ns as f64);
                state_digest(&list)
            }
            Err(e) => {
                f.fail(|| format!("sequential fold failed: {e}"));
                0
            }
        };
        for (i, got) in self.results.iter().enumerate() {
            if *got != digest {
                f.fail(|| format!("op {i}: staged merge differs from the sequential fold"));
            }
        }
        self.base = None;
        self.pool = None;
        digest
    }
}
