//! Distributed Spawn & Merge (the paper's MPI future-work direction): a
//! child whose body runs on a node is a child like any other, so a program
//! must read the same whether its children run here or on a cluster.

use std::ops::Range;
use std::sync::Arc;

use spawn_merge::dist::{Cluster, JobRegistry, NodeId};
use spawn_merge::{
    run, run_with_store, AbortReason, Disposition, MCounterMap, MList, MText, Persist, Pool, Store,
    StoreOptions, TaskCtx, TaskHandle,
};

type Data = (MList<u64>, MCounterMap<String>, MText);

fn data() -> Data {
    (MList::new(), MCounterMap::new(), MText::from("log:"))
}

/// The edit every test program makes for task `n`, locally or on a node.
fn work(d: &mut Data, n: u8) {
    d.0.push(u64::from(n));
    d.1.add(format!("chunk{}", n % 3), 1);
    let at = d.2.char_len();
    d.2.insert_str(at, format!(" t{n}"));
}

fn jobs() -> JobRegistry<Data> {
    let mut jobs: JobRegistry<Data> = JobRegistry::new();
    jobs.register("work", |d, arg| {
        work(d, arg[0]);
        Ok(())
    });
    jobs
}

fn word_count_jobs() -> JobRegistry<MCounterMap<String>> {
    let mut jobs: JobRegistry<MCounterMap<String>> = JobRegistry::new();
    jobs.register("wc", |d, arg| {
        for w in String::from_utf8_lossy(arg).split_whitespace() {
            d.inc(w.to_string());
        }
        Ok(())
    });
    jobs
}

/// Spawn a child that runs `job` with `arg` on `node`.
fn spawn_remote<D: Persist>(
    ctx: &mut TaskCtx<D>,
    cluster: &Arc<Cluster<D>>,
    node: NodeId,
    job: &'static str,
    arg: impl Into<Vec<u8>>,
) -> TaskHandle {
    let (cluster, arg) = (Arc::clone(cluster), arg.into());
    ctx.spawn(move |child| cluster.run(child, node, job, &arg))
}

/// One round: a remote `work` child per task, placed round-robin, merged
/// by one `merge_all`.
fn remote_round(ctx: &mut TaskCtx<Data>, cluster: &Arc<Cluster<Data>>, tasks: Range<u8>) {
    for n in tasks {
        spawn_remote(ctx, cluster, cluster.node_for(usize::from(n)), "work", [n]);
    }
    assert!(ctx.merge_all().all_merged());
}

/// The same logical program, run locally.
fn local_reference(tasks: u8) -> Data {
    let (out, ()) = run(data(), |ctx| {
        for n in 0..tasks {
            ctx.spawn(move |c| {
                work(c.data_mut(), n);
                Ok(())
            });
        }
        ctx.merge_all();
    });
    out
}

fn digest(d: &Data) -> String {
    format!(
        "{:?}|{:?}|{}",
        d.0.to_vec(),
        d.1.iter().collect::<Vec<_>>(),
        d.2
    )
}

#[test]
fn distributed_merge_all_matches_local_semantics() {
    const TASKS: u8 = 9;
    let local = local_reference(TASKS);
    for nodes in [1usize, 2, 4] {
        let cluster = Arc::new(Cluster::launch(nodes, &jobs()).unwrap());
        let (dist, ()) = run(data(), |ctx| remote_round(ctx, &cluster, 0..TASKS));
        assert_eq!(
            digest(&dist),
            digest(&local),
            "distributed ({nodes} nodes) must equal shared-memory result"
        );
    }
}

#[test]
fn distributed_is_deterministic_across_repetitions() {
    let cluster = Arc::new(Cluster::launch(3, &jobs()).unwrap());
    let run_once = || digest(&run(data(), |ctx| remote_round(ctx, &cluster, 0..12)).0);
    let first = run_once();
    for _ in 0..4 {
        assert_eq!(run_once(), first);
    }
}

#[test]
fn merge_all_is_deterministic_despite_node_timing() {
    let mut jobs: JobRegistry<MList<u64>> = JobRegistry::new();
    jobs.register("push", |data, arg| {
        // Variable delay: completion order across nodes scrambles.
        let v = u64::from(arg[0]);
        std::thread::sleep(std::time::Duration::from_micros((v * 37) % 500));
        data.push(v);
        Ok(())
    });
    let cluster = Arc::new(Cluster::launch(4, &jobs).unwrap());
    for _ in 0..5 {
        let (list, ()) = run(MList::new(), |ctx| {
            for i in 0..8u8 {
                spawn_remote(ctx, &cluster, cluster.node_for(usize::from(i)), "push", [i]);
            }
            ctx.merge_all();
        });
        assert_eq!(
            list.to_vec(),
            (0..8u64).collect::<Vec<_>>(),
            "creation-order merge"
        );
    }
}

#[test]
fn multi_round_distributed_computation() {
    // Rounds of spawn + merge, with coordinator edits in between: the
    // coordinator's history grows and later forks start from newer state.
    let cluster = Arc::new(Cluster::launch(2, &jobs()).unwrap());
    let (final_data, ()) = run(data(), |ctx| {
        for round in 0..3u8 {
            remote_round(ctx, &cluster, round * 4..round * 4 + 4);
            ctx.data_mut().1.add("rounds".to_string(), 1);
        }
    });
    assert_eq!(final_data.0.len(), 12);
    assert_eq!(final_data.1.get(&"rounds".to_string()), 3);
    let chunk_total: i64 = (0..3).map(|i| final_data.1.get(&format!("chunk{i}"))).sum();
    assert_eq!(chunk_total, 12);
}

#[test]
fn coordinator_edits_participate_in_rebase() {
    let mut jobs: JobRegistry<MText> = JobRegistry::new();
    jobs.register("append", |data, arg| {
        let at = data.char_len();
        data.insert_str(at, String::from_utf8_lossy(arg).into_owned());
        Ok(())
    });
    let cluster = Arc::new(Cluster::launch(2, &jobs).unwrap());
    let (doc, ()) = run(MText::from("doc:"), |ctx| {
        spawn_remote(ctx, &cluster, 1, "append", " remote1");
        spawn_remote(ctx, &cluster, 2, "append", " remote2");
        // The parent edits while its children run remotely.
        ctx.data_mut().push_str(" local");
        ctx.merge_all();
    });
    assert_eq!(doc, "doc: local remote1 remote2");
}

#[test]
fn distributed_word_count_is_complete_and_exact() {
    let corpus = ["a b c a", "b c d", "a a a", "d e"];
    let cluster = Arc::new(Cluster::launch(2, &word_count_jobs()).unwrap());
    let (counts, ()) = run(MCounterMap::new(), |ctx| {
        for (i, chunk) in corpus.iter().enumerate() {
            spawn_remote(ctx, &cluster, cluster.node_for(i), "wc", *chunk);
        }
        ctx.merge_all();
    });
    assert_eq!(counts.get(&"a".to_string()), 5);
    assert_eq!(counts.get(&"b".to_string()), 2);
    assert_eq!(counts.get(&"c".to_string()), 2);
    assert_eq!(counts.get(&"d".to_string()), 2);
    assert_eq!(counts.get(&"e".to_string()), 1);
    assert_eq!(counts.total(), 12);
}

#[test]
fn shadow_forks_isolate_remote_failures() {
    // A failed, a panicking and an unknown job each abort their child,
    // whose changes the parent dismisses; the nodes keep serving.
    let mut jobs: JobRegistry<MList<u64>> = JobRegistry::new();
    jobs.register("ok", |d, _| {
        d.push(1);
        Ok(())
    });
    jobs.register("boom", |d, _| {
        d.push(666);
        Err("node melted".into())
    });
    jobs.register("kaboom", |d, _| {
        d.push(42);
        panic!("node meltdown");
    });
    let cluster = Arc::new(Cluster::launch(2, &jobs).unwrap());
    let (list, report) = run(MList::new(), |ctx| {
        for (node, job) in [
            (1, "ok"),
            (2, "boom"),
            (1, "kaboom"),
            (1, "ok"),
            (2, "nope"),
        ] {
            spawn_remote(ctx, &cluster, node, job, "");
        }
        ctx.merge_all()
    });
    let outcomes: Vec<_> = report
        .children
        .iter()
        .map(|c| match &c.disposition {
            Disposition::Merged(_) => "merged".to_string(),
            Disposition::AbortedByChild(AbortReason::Error(e)) => e.clone(),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(outcomes[0], "merged");
    assert_eq!(outcomes[1], "node melted");
    assert!(outcomes[2].contains("panicked"), "{}", outcomes[2]);
    assert_eq!(outcomes[3], "merged", "node 1 serves after a panic");
    assert!(outcomes[4].contains("unknown job"), "{}", outcomes[4]);
    assert_eq!(list.to_vec(), vec![1, 1], "failed tasks' changes dismissed");
}

#[test]
fn merge_any_merges_remote_children_as_they_finish() {
    let cluster = Arc::new(Cluster::launch(2, &word_count_jobs()).unwrap());
    let (counts, merged) = run(MCounterMap::new(), |ctx| {
        spawn_remote(ctx, &cluster, 1, "wc", "x y");
        spawn_remote(ctx, &cluster, 2, "wc", "y z");
        let mut merged = 0;
        while let Some(child) = ctx.merge_any() {
            assert!(child.disposition.is_merged());
            merged += 1;
        }
        merged
    });
    assert_eq!(merged, 2);
    assert_eq!(counts.get(&"y".to_string()), 2);
    assert_eq!(counts.total(), 4);
}

#[test]
fn local_and_distributed_can_be_layered() {
    // Local and remote children of one parent fold in one creation-order
    // merge_all.
    let mut jobs: JobRegistry<MList<u64>> = JobRegistry::new();
    jobs.register("push", |d, arg| {
        d.push(u64::from(arg[0]));
        Ok(())
    });
    let cluster = Arc::new(Cluster::launch(2, &jobs).unwrap());
    let (list, report) = run(MList::new(), |ctx| {
        for n in 0..6u8 {
            if n % 2 == 0 {
                ctx.spawn(move |c| {
                    c.data_mut().push(u64::from(n));
                    Ok(())
                });
            } else {
                spawn_remote(ctx, &cluster, cluster.node_for(usize::from(n)), "push", [n]);
            }
        }
        ctx.merge_all()
    });
    assert!(report.all_merged());
    assert_eq!(list.to_vec(), (0..6u64).collect::<Vec<_>>());
}

#[test]
fn remote_children_left_unmerged_are_drained_when_the_root_returns() {
    let cluster = Arc::new(Cluster::launch(2, &word_count_jobs()).unwrap());
    let (counts, ()) = run(MCounterMap::new(), |ctx| {
        spawn_remote(ctx, &cluster, 1, "wc", "a");
        spawn_remote(ctx, &cluster, 2, "wc", "b");
    });
    assert_eq!(counts.total(), 2);
}

/// A durable run journals one commit per remote merge; a second run
/// started from the recovered journal (nodes keep nothing between jobs)
/// must land on the same final state as a run that never stopped.
#[test]
fn durable_coordinator_restarts_and_rejoins_where_the_journal_ends() {
    let dir = std::env::temp_dir().join(format!("sm-dist-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = Arc::new(Cluster::launch(2, &jobs()).unwrap());

    let (reference, ()) = run(data(), |ctx| remote_round(ctx, &cluster, 0..8));

    // First run: the first 4 tasks, journaled.
    {
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        run_with_store(data(), Pool::new(), &store, |ctx| {
            remote_round(ctx, &cluster, 0..4)
        })
        .unwrap();
        assert_eq!(store.last_seq(), 4, "one WAL record per remote merge");
    }

    // Second run: recover the journal and finish the remaining tasks.
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let recovered = store.recover::<Data>().unwrap().expect("journal exists");
    assert_eq!(recovered.last_seq, 4);
    let (resumed, ()) = run_with_store(recovered.data, Pool::new(), &store, |ctx| {
        remote_round(ctx, &cluster, 4..8)
    })
    .unwrap();
    assert_eq!(
        digest(&resumed),
        digest(&reference),
        "the resumed run must converge with the uninterrupted one"
    );

    // And the journal agrees with the in-memory result.
    let verify = Store::open(&dir, StoreOptions::default()).unwrap();
    let replayed = verify.recover::<Data>().unwrap().expect("journal exists");
    assert_eq!(digest(&replayed.data), digest(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}
