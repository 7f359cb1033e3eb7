//! Distributed Spawn & Merge (the paper's MPI future-work direction):
//! a word-count over a simulated cluster. Each chapter is a child whose
//! body runs on a node: its fork ships there as a state snapshot, the
//! node's operation log ships back, and the parent merges the children in
//! creation order — so the result is deterministic no matter which node
//! finishes first.
//!
//! ```text
//! cargo run --example distributed
//! ```

use std::sync::Arc;

use spawn_merge::dist::{Cluster, JobRegistry};
use spawn_merge::{run, Disposition, MCounterMap, MText};

/// Shared data: per-word counters (commutative — increments never lost)
/// plus a mergeable report document the jobs append to.
type Data = (MCounterMap<String>, MText);

const CHAPTERS: [&str; 4] = [
    "the quick brown fox jumps over the lazy dog",
    "the dog barks and the fox runs",
    "a quick dog and a lazy fox",
    "the end of the quick tale",
];

fn main() {
    let mut jobs: JobRegistry<Data> = JobRegistry::new();
    jobs.register("wordcount", |data, arg| {
        let text = String::from_utf8_lossy(arg).into_owned();
        let mut words = 0usize;
        for w in text.split_whitespace() {
            data.0.inc(w.to_string());
            words += 1;
        }
        let at = data.1.char_len();
        data.1.insert_str(at, format!("[chunk of {words} words] "));
        Ok(())
    });

    let nodes = 3;
    let cluster = Arc::new(Cluster::launch(nodes, &jobs).expect("cluster launch"));
    println!("cluster up: {nodes} nodes");

    let ((counts, report), merged) = run((MCounterMap::new(), MText::new()), |ctx| {
        for (i, chapter) in CHAPTERS.iter().enumerate() {
            let node = cluster.node_for(i);
            let cluster = Arc::clone(&cluster);
            let task =
                ctx.spawn(move |child| cluster.run(child, node, "wordcount", chapter.as_bytes()));
            println!("task {} -> node {node}: {chapter:?}", task.id());
        }
        ctx.merge_all()
    });
    for child in &merged.children {
        let Disposition::Merged(stats) = &child.disposition else {
            panic!(
                "task {} was not merged: {:?}",
                child.task, child.disposition
            );
        };
        println!("merged task {} ({} ops)", child.task, stats.child_ops);
    }

    println!("\nreport: {report}");
    println!("word counts (deterministic, creation-order merge):");
    for (word, n) in counts.iter() {
        println!("  {word:<8} {n}");
    }

    let expected_total: i64 = CHAPTERS
        .iter()
        .map(|c| c.split_whitespace().count() as i64)
        .sum();
    assert_eq!(counts.total(), expected_total, "no word may be lost");
    assert_eq!(counts.get(&"the".to_string()), 6);
    assert_eq!(counts.get(&"fox".to_string()), 3);
    println!("\ntotal words: {} — all accounted for", counts.total());
}
