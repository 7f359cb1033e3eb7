//! The run shape every workload shares: identical rounds of
//! fresh state → set-up → a fixed op count → output checks, repeated
//! until the time budget is spent, plus one untimed memory round.
//!
//! Closed loop from one generator thread with at most one op in flight:
//! callers of `commit_with`, `merge_all` and `recover` all block for the
//! reply, so a slower build receives less load, not a growing queue.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::probes::Reference;
use crate::stats;
use crate::trace::Tracer;

/// Failures counted against attempts. Any failure also clears the run's
/// `correct` flag: a faster wrong answer is a failure, not a gain.
#[derive(Debug, Default)]
pub struct Failures {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Failures {
    /// One more attempted op.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// One failed op or output check; the first few reasons are kept.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Per-layer samples by metric name; a metric's value is the median of
/// its samples (one sample for a count taken once).
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median of unsorted nanosecond samples under `name`; nothing when
    /// there are no samples (the metric then reads as not applicable).
    pub fn sample_median_ns(&mut self, name: &'static str, samples: &[u64]) {
        if !samples.is_empty() {
            self.sample(name, stats::median_ns(samples));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| stats::median(v))
    }
}

/// One workload: generated inputs plus the three steps of a round.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Digest of the generated inputs: equal seeds give equal digests.
    fn input_digest(&self) -> u64;

    /// Final parameters, for the env block.
    fn params(&self) -> String;

    /// Fresh state, set-up and warm-up. The harness times this call:
    /// its median over rounds is `setup_s`.
    fn setup(&mut self, t: &mut Tracer, f: &mut Failures);

    /// The round's fixed op count, one duration in nanoseconds per op
    /// into `ops`. The count never depends on elapsed time.
    fn ops(&mut self, t: &mut Tracer, ops: &mut Vec<u64>, f: &mut Failures);

    /// Untimed: output checks and tear-down. Returns the round's output
    /// digest, which must be the same in every round of every run of
    /// one seed.
    fn finish(&mut self, t: &mut Tracer, layers: &mut Layers, f: &mut Failures) -> u64;

    /// Traced run only, untimed: micro-probes of single layers.
    fn probes(&mut self, _layers: &mut Layers) {}
}

/// What a sequence of identical rounds measured, as the clock read it —
/// no op is left out — and how fast the box was around each round.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Every timed op of the run in order, nanoseconds.
    pub ops_ns: Vec<u64>,
    /// Index into `ops_ns` of each round's first op.
    starts: Vec<usize>,
    /// Per round, seconds.
    pub setup_s: Vec<f64>,
    /// `Reference::sort_us` before the first round and after every round
    /// (one more than there are rounds), each taken while no state of the
    /// program exists.
    reference_us: Vec<f64>,
    pub output_digest: Option<u64>,
}

/// Ops ÷ their summed seconds (0 for none).
fn rate(ops_ns: &[u64]) -> f64 {
    match ops_ns.iter().sum::<u64>() {
        0 => 0.0,
        ns => ops_ns.len() as f64 / (ns as f64 / 1e9),
    }
}

impl Rounds {
    pub fn rounds(&self) -> usize {
        self.starts.len()
    }

    /// Each round's span of `ops_ns`.
    fn spans(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let ends = self.starts.iter().skip(1).copied();
        self.starts
            .iter()
            .zip(ends.chain([self.ops_ns.len()]))
            .map(|(from, to)| *from..to)
    }

    /// `of` each round's timed ops, in order.
    fn per_round(&self, of: impl Fn(&[u64]) -> f64) -> Vec<f64> {
        self.spans().map(|span| of(&self.ops_ns[span])).collect()
    }

    /// Median over all timed ops of the run, pooled across rounds.
    pub fn op_p50_us(&self) -> f64 {
        stats::median_ns(&self.ops_ns) / 1e3
    }

    /// Median over rounds of the round's timed ops ÷ their summed timed
    /// seconds. Inside a round every op counts, so one that is slow once
    /// a round is in every round's rate; across the identical rounds the
    /// median keeps a stretch in which the box was slow from dragging the
    /// run's number with it, as it drags the mean over the whole run.
    pub fn ops_per_s(&self) -> f64 {
        stats::median(&self.per_round(rate))
    }

    /// Median over rounds of the round's set-up.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_s)
    }

    /// Each round's median op in microseconds: how to see whether the
    /// box moved during a run.
    pub fn round_p50_us(&self) -> Vec<f64> {
        self.per_round(|ops| stats::median_ns(ops) / 1e3)
    }

    /// Median of the run's reference samples, microseconds.
    pub fn reference_us(&self) -> f64 {
        stats::median(&self.reference_us)
    }

    /// The same rounds with every duration as it would have read had the
    /// box sorted the reference block in exactly `REFERENCE_US` all along:
    /// each round's ops and set-up are multiplied by `REFERENCE_US` ÷ the
    /// mean of the two reference samples that bracket the round. This box
    /// moves between speeds a quarter apart that last minutes (README,
    /// *This box*), so whole runs differ by more than any bound; the
    /// samples are taken where the program cannot move them, so a change
    /// to the program moves these numbers exactly as it moves the clock's.
    pub fn at_reference_speed(&self) -> Rounds {
        let factor = |round: usize| {
            let around = (self.reference_us[round] + self.reference_us[round + 1]) / 2.0;
            REFERENCE_US / around
        };
        let mut ops_ns = self.ops_ns.clone();
        for (round, span) in self.spans().enumerate() {
            for ns in &mut ops_ns[span] {
                *ns = (*ns as f64 * factor(round)).round() as u64;
            }
        }
        let setup_s = self.setup_s.iter().enumerate();
        Rounds {
            ops_ns,
            starts: self.starts.clone(),
            setup_s: setup_s.map(|(round, s)| s * factor(round)).collect(),
            reference_us: vec![REFERENCE_US; self.reference_us.len()],
            output_digest: self.output_digest,
        }
    }
}

/// Reference speed: the box sorts the reference block in one millisecond.
/// A definition, not a calibration — this box takes 0.9–1.4 ms.
pub const REFERENCE_US: f64 = 1000.0;

/// Calls the harness makes around the steps of a round. `before_ops`
/// and `after_ops` bracket the timed ops alone (the traced run installs
/// its recorder there, so set-up and output checks stay unobserved);
/// `between` runs after each round.
pub struct Hooks<'a> {
    pub before_ops: Box<dyn FnMut() + 'a>,
    pub after_ops: Box<dyn FnMut() + 'a>,
    pub between: Box<dyn FnMut(&mut Layers) + 'a>,
}

impl Hooks<'_> {
    pub fn none() -> Self {
        Hooks {
            before_ops: Box::new(|| {}),
            after_ops: Box::new(|| {}),
            between: Box::new(|_| {}),
        }
    }
}

/// One round; returns its wall time.
fn round(
    w: &mut dyn Workload,
    t: &mut Tracer,
    layers: &mut Layers,
    f: &mut Failures,
    hooks: &mut Hooks<'_>,
    out: &mut Rounds,
) -> Duration {
    let wall = Instant::now();
    w.setup(t, f);
    out.setup_s.push(wall.elapsed().as_secs_f64());
    out.starts.push(out.ops_ns.len());
    (hooks.before_ops)();
    w.ops(t, &mut out.ops_ns, f);
    (hooks.after_ops)();
    let digest = w.finish(t, layers, f);
    match out.output_digest {
        None => out.output_digest = Some(digest),
        Some(first) if first != digest => {
            f.fail(|| format!("output digest {digest:016x} differs from round 0's {first:016x}"))
        }
        Some(_) => {}
    }
    wall.elapsed()
}

/// Repeat rounds while another one, and `then` more rounds' worth of
/// work the caller does afterwards, still fit in `budget` (at least one
/// round is always run).
pub fn run_rounds(
    w: &mut dyn Workload,
    budget: Duration,
    then: u32,
    t: &mut Tracer,
    layers: &mut Layers,
    f: &mut Failures,
    hooks: &mut Hooks<'_>,
) -> Rounds {
    let start = Instant::now();
    let mut reference = Reference::new();
    let mut out = Rounds::default();
    out.reference_us.push(reference.sort_us());
    loop {
        let took = round(w, t, layers, f, hooks, &mut out);
        // `finish` has torn the round's state down: no thread of the
        // program has work left to share the CPUs with the sample.
        out.reference_us.push(reference.sort_us());
        (hooks.between)(layers);
        if start.elapsed() + took * (1 + then) > budget {
            return out;
        }
    }
}

/// The memory round: one more round under the counting allocator, its
/// timings thrown away. Accounting covers set-up and ops, not the
/// output checks (a third client's mirrors are not the program's heap).
pub struct MemoryRound {
    pub peak_heap_mb: f64,
    pub allocs_per_op: f64,
    pub alloc_bytes_per_op: f64,
}

pub fn memory_round(w: &mut dyn Workload, f: &mut Failures) -> MemoryRound {
    let mut t = Tracer::off();
    let mut scratch = Layers::default();
    // Room for every op's duration before accounting starts: the
    // benchmark's own bookkeeping must not count as the program's heap.
    let mut ops = Vec::with_capacity(MEMORY_ROUND_OPS);
    alloc::start();
    w.setup(&mut t, f);
    let (count0, bytes0) = alloc::so_far();
    w.ops(&mut t, &mut ops, f);
    let heap = alloc::stop();
    assert!(
        ops.len() <= MEMORY_ROUND_OPS,
        "the op sink grew while counted"
    );
    w.finish(&mut t, &mut scratch, f);
    let ops = ops.len().max(1) as f64;
    MemoryRound {
        peak_heap_mb: heap.peak_bytes as f64 / (1024.0 * 1024.0),
        allocs_per_op: (heap.allocations - count0) as f64 / ops,
        alloc_bytes_per_op: (heap.allocated_bytes - bytes0) as f64 / ops,
    }
}

/// More ops than any workload times in one round.
const MEMORY_ROUND_OPS: usize = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_over_ops_and_over_rounds_nothing_trimmed() {
        // Three rounds: three quick ops, two with a 1 ms straggler, one
        // round in which the box stood still for a second.
        let rounds = Rounds {
            ops_ns: vec![
                10_000,
                20_000,
                30_000,
                40_000,
                1_000_000,
                1_000_000_000,
            ],
            starts: vec![0, 3, 5],
            setup_s: vec![3.0, 1.0, 2.0],
            reference_us: vec![REFERENCE_US; 4],
            output_digest: None,
        };
        assert_eq!(rounds.op_p50_us(), 35.0);
        // Round rates: 50 000, 1923 and 1 per second. The straggler is
        // inside the middle round's rate; the stalled round does not move
        // the median over rounds.
        assert!((rounds.ops_per_s() - 2.0 / 1.04e-3).abs() < 1e-6);
        assert_eq!(rounds.setup_s(), 2.0);
        assert_eq!(rounds.round_p50_us(), vec![20.0, 520.0, 1e6]);
        assert_eq!(Rounds::default().ops_per_s(), 0.0);
        // At reference speed all along, scaling changes nothing.
        assert_eq!(rounds.at_reference_speed().ops_ns, rounds.ops_ns);
    }

    #[test]
    fn reference_speed_scales_each_round_by_the_samples_around_it() {
        // The box sorted the block in 1 ms before and after round 0 and
        // in 2 ms after round 1: round 1 ran on a box a third slower.
        let rounds = Rounds {
            ops_ns: vec![100_000, 100_000, 150_000, 150_000],
            starts: vec![0, 2],
            setup_s: vec![1.0, 1.5],
            reference_us: vec![1000.0, 1000.0, 2000.0],
            output_digest: None,
        };
        let scaled = rounds.at_reference_speed();
        assert_eq!(scaled.ops_ns, vec![100_000; 4]);
        assert_eq!(scaled.setup_s, vec![1.0, 1.0]);
        assert_eq!(scaled.op_p50_us(), 100.0);
        assert_eq!(rounds.op_p50_us(), 125.0);
        assert_eq!(rounds.reference_us(), 1000.0);
    }
}
