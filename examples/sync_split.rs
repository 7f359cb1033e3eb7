//! Where one Figure 3 simulation at host workload 0 spends its time and
//! allocates, without the runtime: the root's `MergeAll` walks and the
//! hosts' rounds replayed on one thread in the runtime's order, checked
//! against `run_spawn_merge`'s results. DESIGN §3.2 quotes this split.
//!
//! ```text
//! taskset -c 1 cargo run --release --example sync_split -- 31   # replays
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use spawn_merge::netsim::{process_message, run_spawn_merge, HostStats};
use spawn_merge::netsim::{Routing, SimConfig, SimData};
use spawn_merge::{MergeStats, Mergeable};

/// The system allocator, counting allocations.
struct Counting;
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged; the counter is a plain atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: same contract as our caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as our caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const PHASES: &str = "edits,merge queues,merge scalars,refork queues,refork scalars,fork marks,GC";

/// Laps: the clock and the allocation count when the running phase
/// began, and per phase the nanoseconds and allocations it took.
struct Split(Instant, usize, [(u64, usize); 7]);

impl Split {
    /// Close the running phase as `phase`.
    fn lap(&mut self, phase: usize) {
        let (now, allocs) = (Instant::now(), ALLOCATIONS.load(Relaxed));
        self.2[phase].0 += (now - self.0).as_nanos() as u64;
        self.2[phase].1 += allocs - self.1;
        (self.0, self.1) = (now, allocs);
    }
}

/// One simulation: the split, the root's final data and the rounds.
fn replay(cfg: &SimConfig) -> (Split, SimData, u64) {
    let mut root = SimData::initial(cfg);
    let mut hosts = Vec::new();
    for h in 0..cfg.hosts {
        let (data, mut marks) = (root.fork(), Vec::new());
        data.fork_marks(&mut marks);
        hosts.push((h, data, marks));
    }
    let mut s = Split(Instant::now(), ALLOCATIONS.load(Relaxed), [(0, 0); 7]);
    let mut rounds = 0;
    loop {
        // `MergeAll`: every host's `Sync` in creation order. A host whose
        // round saw the `done` flag completed instead, editing nothing.
        hosts.retain_mut(|(_, data, marks)| {
            let (d, stats) = (&*data, &mut MergeStats::default());
            root.queues.merge_into(&d.queues, stats).unwrap();
            s.lap(1);
            root.processed.merge_into(&d.processed, stats).unwrap();
            root.digests.merge_into(&d.digests, stats).unwrap();
            root.done.merge_into(&d.done, stats).unwrap();
            s.lap(2);
            if *d.done.get() {
                return false;
            }
            data.queues.refork(&root.queues);
            s.lap(3);
            data.processed.refork(&root.processed);
            data.digests.refork(&root.digests);
            data.done.refork(&root.done);
            s.lap(4);
            marks.clear();
            data.fork_marks(marks);
            s.lap(5);
            true
        });
        // Fork-watermark GC: the element-wise minimum of live fork marks.
        let mut watermark = Vec::new();
        root.history_marks(&mut watermark);
        for (i, m) in hosts.iter().flat_map(|(_, _, m)| m.iter().enumerate()) {
            watermark[i] = watermark[i].min(*m);
        }
        root.truncate_history(&watermark, &mut 0);
        s.lap(6);
        rounds += 1;
        if hosts.is_empty() {
            break;
        }
        if !*root.done.get() && root.queues.iter().all(|q| q.is_empty()) {
            root.done.set(true);
        }
        // Each host's next round, on its own re-forked data.
        for (h, d, _) in &mut hosts {
            let msg = (!*d.done.get()).then(|| d.queues[*h].pop_front());
            let Some(msg) = msg.flatten() else { continue };
            let (digest, forwarded) = process_message(&msg, *h, cfg);
            d.processed[*h].inc();
            let mut stats = HostStats {
                processed: 0,
                digest: *d.digests[*h].get(),
            };
            stats.record(msg.id, &digest);
            d.digests[*h].set(stats.digest);
            if let Some((m, dest)) = forwarded {
                d.queues[dest].push_back(m);
            }
        }
        s.lap(0);
    }
    (s, root, rounds)
}

fn main() {
    let arg = std::env::args().nth(1);
    let runs: usize = arg.map_or(31, |a| a.parse().expect("replays"));
    let cfg = SimConfig::paper(0, Routing::HashDerived);
    let reference = run_spawn_merge(&cfg);
    let mut laps = Vec::new();
    let want: Vec<_> = reference.stats.iter().map(|h| h.digest).collect();
    for _ in 0..runs {
        let (split, root, rounds) = replay(&cfg);
        let got: Vec<_> = root.digests.iter().map(|d| *d.get()).collect();
        assert_eq!((&got, rounds), (&want, reference.rounds), "results");
        laps.push(split.2);
    }
    println!("{} rounds; median ms of {runs} replays", reference.rounds);
    let (mut ms_sum, mut allocs_sum) = (0.0, 0);
    for (i, phase) in PHASES.split(',').enumerate() {
        let mut ns: Vec<u64> = laps.iter().map(|l| l[i].0).collect();
        ns.sort_unstable();
        let (ms, allocs) = (ns[ns.len() / 2] as f64 / 1e6, laps[0][i].1);
        (ms_sum, allocs_sum) = (ms_sum + ms, allocs_sum + allocs);
        println!("{phase:>15}: {ms:7.2} ms {allocs:>9} allocations");
    }
    println!("{:>15}: {ms_sum:7.2} ms {allocs_sum:>9} allocations", "sum");
}
