//! sm-store integration: journal/recover roundtrips, snapshot GC, the
//! crash-injection harness, tamper detection, and the mid-stream crash
//! convergence theorem.
//!
//! The property under test is the store's *verified prefix or nothing*
//! contract: whatever a crash leaves on disk, recovery either
//! reconstructs a digest-verified prefix of the journaled commit
//! sequence (bit-identical to the original run's state at that commit)
//! or fails closed with an error — it never panics and never fabricates
//! state. Determinism then upgrades prefix recovery to full convergence:
//! resuming a deterministic program from a recovered round-boundary state
//! reproduces the uninterrupted run's final state exactly.

use std::fs;
use std::path::{Path, PathBuf};

use bytes::{BufMut, BytesMut};
use spawn_merge::codec::put_varint;
use spawn_merge::net::frame::{encode_frame, Frames};
use spawn_merge::netsim::workload::Lcg;
use spawn_merge::obs::TaskPath;
use spawn_merge::store::wal::Record;
use spawn_merge::{
    run, run_with_store, FsyncPolicy, MCounter, MList, MText, Mergeable, Persist, Pool, Store,
    StoreError, StoreOptions, TaskAbort,
};

/// A fresh, empty scratch directory unique to this process and `tag`.
/// The repo's dependency set has no tempdir crate, so tests hand-roll
/// one under the OS temp root.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sm-store-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copy every regular file of `src` into a fresh sibling directory, so a
/// "crash image" can be mutilated without disturbing the live store.
fn copy_dir(src: &Path, tag: &str) -> PathBuf {
    let dst = scratch_dir(tag);
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

/// Snapshot `data` through `store`, first copying every file of its
/// directory into `kept`: `kept` ends up holding every journal file the
/// snapshots' prunes deleted.
fn snapshot_keeping<D: Persist>(store: &Store, data: &D, kept: &Path) {
    for entry in fs::read_dir(store.dir()).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), kept.join(entry.file_name())).unwrap();
    }
    store.snapshot(data).unwrap();
}

/// The crash image of a store that never got to prune: a fresh directory
/// holding the files `snapshot_keeping` kept, then `dir`'s own files over
/// them (a file in both only grew since it was kept). Every covered
/// snapshot and segment lies beside the newer snapshots.
fn unpruned(dir: &Path, kept: &Path, tag: &str) -> PathBuf {
    let image = copy_dir(kept, tag);
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
    }
    image
}

/// Every WAL segment of a store directory, oldest first.
fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut wals: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    wals.sort();
    wals
}

/// `(segment, seq, end)` of every commit frame in the WAL of `dir`, in
/// journal order: `end` is the byte offset just past the frame, where a
/// crash that keeps the commit and loses what follows cuts the segment.
fn commit_ends(dir: &Path) -> Vec<(PathBuf, u64, u64)> {
    let mut ends = Vec::new();
    for segment in wal_segments(dir) {
        let bytes = fs::read(&segment).unwrap();
        let mut frames = Frames::new(&bytes);
        while let Some((_, payload)) = frames.next() {
            if let Record::Commit(commit) = Record::from_bytes(payload).unwrap() {
                ends.push((segment.clone(), commit.seq, frames.offset() as u64));
            }
        }
    }
    ends
}

/// The single WAL segment of a store directory (panics if there is not
/// exactly one — callers arrange options so rotation never triggers).
fn single_wal(dir: &Path) -> PathBuf {
    let mut wals = wal_segments(dir);
    assert_eq!(wals.len(), 1, "expected a single WAL segment in {dir:?}");
    wals.pop().unwrap()
}

type Doc = (MList<u32>, MText, MCounter);

fn doc_digest(doc: &Doc) -> String {
    format!("{:?}|{}|{}", doc.0.to_vec(), doc.1, doc.2.get())
}

/// One deterministic multi-structure round: three children edit forks of
/// the doc, the parent merges them in creation order. Only the root ever
/// touches the counter — tests use it as the round number.
fn doc_round(ctx: &mut spawn_merge::TaskCtx<Doc>, round: u64) {
    for editor in 0..3u64 {
        ctx.spawn(move |c| {
            let mut rng = Lcg::new(round * 31 + editor + 1);
            let (list, text, _count) = c.data_mut();
            list.push((rng.next() % 1000) as u32);
            let pos = (rng.next() as usize) % (text.char_len() + 1);
            text.insert_str(pos, format!("{}", rng.next() % 10));
            Ok(())
        });
    }
    ctx.merge_all();
}

#[test]
fn journal_then_recover_restores_exact_state() {
    let dir = scratch_dir("roundtrip");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let initial: Doc = (MList::new(), MText::from("seed:"), MCounter::new(10));
    let (live, ()) = run_with_store(initial, Pool::new(), &store, |ctx| {
        for round in 0..8 {
            doc_round(ctx, round);
            // Root-local edits between merge rounds exercise the
            // trailing-ops export paths.
            ctx.data_mut().2.add(1);
        }
    })
    .unwrap();

    let reopened = Store::open(&dir, StoreOptions::default()).unwrap();
    let rec = reopened.recover::<Doc>().unwrap().expect("journal exists");
    assert_eq!(doc_digest(&rec.data), doc_digest(&live));
    assert_eq!(rec.snapshot_seq, 0, "no snapshot was requested");
    assert_eq!(rec.torn_bytes, 0, "clean shutdown leaves no torn tail");
    assert!(rec.replayed_ops > 0);

    // Recovery primes the store: journaling continues seamlessly and a
    // second recovery sees the continuation.
    let (live2, ()) = run_with_store(rec.data, Pool::new(), &reopened, |ctx| {
        doc_round(ctx, 99);
    })
    .unwrap();
    let third = Store::open(&dir, StoreOptions::default()).unwrap();
    let rec2 = third.recover::<Doc>().unwrap().expect("journal exists");
    assert_eq!(doc_digest(&rec2.data), doc_digest(&live2));
    assert!(rec2.last_seq > rec.last_seq);
}

#[test]
fn empty_directory_recovers_to_none() {
    let dir = scratch_dir("empty");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    assert!(store.recover::<MList<u32>>().unwrap().is_none());
}

#[test]
fn snapshots_garbage_collect_segments_and_still_recover() {
    let dir = scratch_dir("snapshot-gc");
    let options = StoreOptions {
        fsync: FsyncPolicy::EveryN(8),
        snapshot_every_ops: 5,
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options.clone()).unwrap();
    let (live, ()) = run_with_store(
        (MList::new(), MText::new(), MCounter::new(0)),
        Pool::new(),
        &store,
        |ctx| {
            for round in 0..10 {
                doc_round(ctx, round);
            }
        },
    )
    .unwrap();

    // Automatic snapshots fired and GC'd covered history: the genesis
    // snapshot is gone and some snapshot with seq > 0 exists.
    let names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names
            .iter()
            .any(|n| n.starts_with("snap-") && !n.ends_with("00000000000000000000")),
        "expected a non-genesis snapshot, found {names:?}"
    );
    assert!(
        !names.contains(&"snap-00000000000000000000".to_string()),
        "genesis snapshot should be GC'd, found {names:?}"
    );

    let reopened = Store::open(&dir, options).unwrap();
    let rec = reopened.recover::<Doc>().unwrap().expect("journal exists");
    assert!(rec.snapshot_seq > 0, "recovery starts from a real snapshot");
    assert_eq!(doc_digest(&rec.data), doc_digest(&live));
}

#[test]
fn gc_after_abort_round_cannot_outrun_the_journal() {
    // The adversarial GC schedule: a commit, then root-local ops, then a
    // young fork past them, then a GC round triggered by an *aborted*
    // child (no commit). The fork watermark lies beyond the last commit,
    // so without the sink's pre-truncation hook the root-local ops would
    // be dropped before ever reaching the WAL.
    let dir = scratch_dir("gc-abort");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let (live, ()) = run_with_store(MList::<u32>::new(), Pool::new(), &store, |ctx| {
        let a = ctx.spawn(|c| {
            c.data_mut().push(1);
            Ok(())
        });
        ctx.merge_all_from_set(&[&a]); // commit 1
        ctx.data_mut().push(2); // root-local, journaled by no commit yet
        let _b = ctx.spawn(|c| {
            c.data_mut().push(3); // forked past the root-local op
            Ok(())
        });
        let doomed = ctx.spawn(|_| -> Result<(), TaskAbort> { Err(TaskAbort::new("doomed")) });
        ctx.merge_all_from_set(&[&doomed]); // abort round: GC without commit
        ctx.merge_all(); // commit for b
    })
    .unwrap();
    assert_eq!(live.to_vec(), vec![1, 2, 3]);

    let reopened = Store::open(&dir, StoreOptions::default()).unwrap();
    let rec = reopened.recover::<MList<u32>>().unwrap().expect("journal");
    assert_eq!(rec.data.to_vec(), vec![1, 2, 3]);
}

#[test]
fn crash_injection_recovers_verified_prefix_or_fails_closed_never_panics() {
    // Journal 40 standalone commits, remembering the exact state at each
    // sequence number. Then mutilate crash images of the directory at
    // seeded offsets — truncations and byte flips — and require recovery
    // to either reproduce the remembered state at whatever prefix it
    // reports, or return an error. Panics and divergent states fail the
    // test.
    let dir = scratch_dir("crash-base");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    let mut prefix_states = vec![data.to_vec()]; // index = seq
    for i in 1..=40u64 {
        data.push(i * i);
        store.commit_now(&data, &TaskPath::root()).unwrap();
        prefix_states.push(data.to_vec());
    }
    let wal = single_wal(&dir);
    let wal_len = fs::metadata(&wal).unwrap().len();

    let mut rng = Lcg::new(0xC0FFEE);
    for case in 0..60 {
        let image = copy_dir(&dir, &format!("crash-{case}"));
        let target = image.join(wal.file_name().unwrap());
        let flip = case % 2 == 1;
        let offset = rng.next() % wal_len;
        if flip {
            let mut bytes = fs::read(&target).unwrap();
            bytes[offset as usize] ^= 0x40;
            fs::write(&target, bytes).unwrap();
        } else {
            let file = fs::OpenOptions::new().write(true).open(&target).unwrap();
            file.set_len(offset).unwrap();
        }

        let victim = Store::open(&image, StoreOptions::default()).unwrap();
        match victim.recover::<MList<u64>>() {
            Ok(Some(rec)) => {
                let seq = rec.last_seq as usize;
                assert!(seq < prefix_states.len(), "case {case}: impossible seq");
                assert_eq!(
                    rec.data.to_vec(),
                    prefix_states[seq],
                    "case {case} (flip={flip} offset={offset}): recovered state \
                     must be the journaled prefix at seq {seq}"
                );
                // A truncation is always a torn tail; a flip may also be
                // caught by the digest chain or record decoding, but
                // whatever prefix survives must verify — checked above.
                if !flip {
                    assert!(rec.last_seq <= 40);
                }
            }
            Ok(None) => panic!("case {case}: genesis snapshot was never touched"),
            Err(_) => {} // failing closed is always acceptable
        }
    }
}

#[test]
fn post_crash_journaling_continues_from_the_recovered_prefix() {
    let dir = scratch_dir("crash-continue");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    for i in 1..=10u64 {
        data.push(i);
        store.commit_now(&data, &TaskPath::root()).unwrap();
    }
    // Tear mid-record: chop 3 bytes off the WAL tail.
    let wal = single_wal(&dir);
    let len = fs::metadata(&wal).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let reopened = Store::open(&dir, StoreOptions::default()).unwrap();
    let rec = reopened.recover::<MList<u64>>().unwrap().expect("journal");
    assert_eq!(rec.last_seq, 9, "final record was torn");
    assert!(rec.torn_bytes > 0);
    let mut data = rec.data;
    assert_eq!(data.to_vec(), (1..=9).collect::<Vec<_>>());

    // The repaired store keeps journaling; a later recovery sees both the
    // surviving prefix and the continuation.
    data.push(77);
    reopened.commit_now(&data, &TaskPath::root()).unwrap();
    let third = Store::open(&dir, StoreOptions::default()).unwrap();
    let rec2 = third.recover::<MList<u64>>().unwrap().expect("journal");
    assert_eq!(rec2.last_seq, 10);
    let mut expect: Vec<u64> = (1..=9).collect();
    expect.push(77);
    assert_eq!(rec2.data.to_vec(), expect);
}

#[test]
fn interior_segment_corruption_fails_closed() {
    let dir = scratch_dir("interior");
    let options = StoreOptions {
        segment_bytes: 64, // force a rotation on nearly every commit
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options.clone()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    for i in 1..=6u64 {
        data.push(i);
        store.commit_now(&data, &TaskPath::root()).unwrap();
    }
    let mut wals: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    wals.sort();
    assert!(wals.len() > 1, "tiny segments must have rotated");

    // Flip a byte inside the *first* segment: not a torn tail, so
    // recovery must refuse rather than silently skip commits.
    let mut bytes = fs::read(&wals[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&wals[0], bytes).unwrap();

    let victim = Store::open(&dir, options).unwrap();
    match victim.recover::<MList<u64>>() {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn tampered_ops_with_a_valid_crc_trip_the_digest_chain() {
    // CRC32 framing catches accidental corruption; the FNV digest chain
    // is what catches *reframed* tampering. Rewrite the first commit's
    // ops with a bit flipped, keep the journaled chain value, and reframe
    // with a correct CRC: recovery must report DigestMismatch at seq 1.
    let dir = scratch_dir("tamper");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let mut data = MText::new();
    store.begin(&data).unwrap();
    for i in 0..4 {
        data.push_str(format!("line {i};"));
        store.commit_now(&data, &TaskPath::root()).unwrap();
    }

    let wal = single_wal(&dir);
    let bytes = fs::read(&wal).unwrap();
    let mut frames = Frames::new(&bytes);
    let (_, payload) = frames.next().expect("first frame");
    let first_end = frames.offset();
    let Record::Commit(mut commit) = Record::from_bytes(payload).unwrap() else {
        panic!("WAL must hold commit records");
    };
    assert_eq!(commit.seq, 1);
    let mut ops = commit.ops.to_vec();
    assert!(!ops.is_empty());
    let mid = ops.len() / 2;
    ops[mid] ^= 0x20;
    commit.ops = spawn_merge::store::wal::Bytes::copy_from_slice(&ops);
    // Note: commit.chain is left at the journaled value.
    let mut forged = Vec::new();
    encode_frame(Record::Commit(commit).to_bytes().as_slice(), &mut forged);
    forged.extend_from_slice(&bytes[first_end..]);
    fs::write(&wal, forged).unwrap();

    let victim = Store::open(&dir, StoreOptions::default()).unwrap();
    match victim.recover::<MText>() {
        Err(StoreError::DigestMismatch { seq: 1, .. }) => {}
        other => panic!("expected DigestMismatch at seq 1, got {other:?}"),
    }
}

/// Flip one bit in the middle of commit `seq`'s ops, leave its journaled
/// chain value alone, and re-frame it with a valid CRC; every other frame
/// of `segment` keeps its bytes.
fn flip_op_bit_reframed(segment: &Path, seq: u64) {
    let bytes = fs::read(segment).unwrap();
    let mut out = Vec::new();
    let mut found = false;
    let mut frames = Frames::new(&bytes);
    while let Some((at, payload)) = frames.next() {
        let Record::Commit(mut commit) = Record::from_bytes(payload).unwrap() else {
            panic!("WAL must hold commit records");
        };
        if commit.seq == seq {
            found = true;
            let mut ops = commit.ops.to_vec();
            let mid = ops.len() / 2;
            ops[mid] ^= 0x20;
            commit.ops = spawn_merge::store::wal::Bytes::copy_from_slice(&ops);
            encode_frame(Record::Commit(commit).to_bytes().as_slice(), &mut out);
        } else {
            out.extend_from_slice(&bytes[at..frames.offset()]);
        }
    }
    assert!(found, "commit {seq} not in {segment:?}");
    fs::write(segment, out).unwrap();
}

/// The corruption matrix across segment boundaries: with the journal
/// spread over several segments and two child paths interleaved in each,
/// every defect is reported at the commit that carries it, whichever
/// side of a segment boundary that commit sits on.
#[test]
fn tamper_and_corruption_matrix_across_segment_boundaries() {
    let dir = scratch_dir("boundary-base");
    let options = StoreOptions {
        segment_bytes: 160, // a few commits per segment
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options.clone()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    let mut prefix_states = vec![data.to_vec()]; // index = seq
    for i in 1..=16u64 {
        data.push(i);
        data.push(i * 100);
        store
            .commit_now(&data, &TaskPath::root().child(1 + i % 2))
            .unwrap();
        prefix_states.push(data.to_vec());
    }
    drop(store);
    let bounds = commit_ends(&dir);
    let segments = wal_segments(&dir);
    assert!(segments.len() >= 3, "tiny segments must have rotated");
    let in_second: Vec<u64> = bounds
        .iter()
        .filter(|(segment, ..)| *segment == segments[1])
        .map(|&(_, seq, _)| seq)
        .collect();
    assert!(in_second.len() >= 3, "both paths recur inside a segment");

    let image_of = |tag: &str, segment: &Path| {
        let image = copy_dir(&dir, tag);
        let target = image.join(segment.file_name().unwrap());
        (image, target)
    };
    let recover = |image: &Path| Store::open(image, options.clone())?.recover::<MList<u64>>();

    // A re-framed bit flip in the first commit of a non-first segment,
    // then in a later commit of the same segment.
    for (case, &seq) in [in_second[0], in_second[2]].iter().enumerate() {
        let (image, target) = image_of(&format!("boundary-flip-{case}"), &segments[1]);
        flip_op_bit_reframed(&target, seq);
        match recover(&image) {
            Err(StoreError::DigestMismatch { seq: at, .. }) if at == seq => {}
            other => panic!("expected DigestMismatch at seq {seq}, got {other:?}"),
        }
    }

    // A deleted middle segment is a sequence gap, not a shorter journal.
    let (image, target) = image_of("boundary-gap", &segments[1]);
    fs::remove_file(target).unwrap();
    match recover(&image) {
        Err(StoreError::Corrupt(msg)) if msg.contains("commit sequence gap") => {}
        other => panic!("expected a sequence-gap Corrupt, got {other:?}"),
    }

    // A torn tail in the final segment: truncated, the prefix wins.
    let (last_segment, _, last_end) = bounds.last().unwrap();
    assert_ne!(*last_segment, segments[0]);
    let (image, target) = image_of("boundary-torn", last_segment);
    fs::OpenOptions::new()
        .write(true)
        .open(&target)
        .unwrap()
        .set_len(last_end - 5)
        .unwrap();
    let (before_segment, _, before_end) = &bounds[bounds.len() - 2];
    let clean_len = if before_segment == last_segment {
        *before_end
    } else {
        0
    };
    let rec = recover(&image).unwrap().expect("journal exists");
    assert_eq!(rec.last_seq, 15, "the final record was torn");
    assert_eq!(rec.torn_bytes, last_end - 5 - clean_len);
    assert_eq!(rec.data.to_vec(), prefix_states[15]);
    assert_eq!(fs::metadata(&target).unwrap().len(), clean_len);
}

/// What a failed recovery reported: the error's variant and the commit
/// it names.
fn refusal<D: std::fmt::Debug>(
    result: Result<Option<spawn_merge::store::Recovered<D>>, StoreError>,
) -> (&'static str, Option<u64>) {
    match result {
        Err(StoreError::Io(_)) => ("Io", None),
        Err(StoreError::Corrupt(_)) => ("Corrupt", None),
        Err(StoreError::DigestMismatch { seq, .. }) => ("DigestMismatch", Some(seq)),
        Err(StoreError::Replay { seq, .. }) => ("Replay", Some(seq)),
        Ok(rec) => panic!("recovery must refuse this journal, got {rec:?}"),
    }
}

/// Two independent defects in one journal — an early commit whose chain
/// link verifies but whose ops cannot replay, and a later digest
/// mismatch — are reported the same way by `recover` and by the
/// `recover_serial` reference: the whole journal is verified before any
/// operation is applied.
#[test]
fn recover_and_reference_select_the_same_error() {
    let dir = scratch_dir("error-selection");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let mut data = MList::<u64>::from_iter(0..10);
    store.begin(&data).unwrap();
    for i in 0..4u64 {
        data.insert(8, i); // honest — on a ten-element base
        store.commit_now(&data, &TaskPath::root()).unwrap();
    }
    drop(store);

    // The genesis snapshot of an *empty* list, from a second store: no
    // chain covers the snapshot's state, so every link still verifies,
    // but commit 1's insert now lands out of bounds.
    let donor = scratch_dir("error-selection-donor");
    Store::open(&donor, StoreOptions::default())
        .unwrap()
        .begin(&MList::<u64>::new())
        .unwrap();
    let genesis = "snap-00000000000000000000";
    fs::copy(donor.join(genesis), dir.join(genesis)).unwrap();
    // And a digest mismatch two commits later.
    flip_op_bit_reframed(&single_wal(&dir), 3);

    let reference = refusal(
        Store::open(&dir, StoreOptions::default())
            .unwrap()
            .recover_serial::<MList<u64>>(),
    );
    let shipped = refusal(
        Store::open(&dir, StoreOptions::default())
            .unwrap()
            .recover::<MList<u64>>(),
    );
    assert_eq!(shipped, reference);
    assert_eq!(shipped, ("DigestMismatch", Some(3)));

    // With the chain intact the unreplayable commit is what is left.
    let dir2 = copy_dir(&dir, "error-selection-replay");
    // (Undo the flip: the same bit, the same frame.)
    flip_op_bit_reframed(&single_wal(&dir2), 3);
    for result in [
        Store::open(&dir2, StoreOptions::default())
            .unwrap()
            .recover_serial::<MList<u64>>(),
        Store::open(&dir2, StoreOptions::default())
            .unwrap()
            .recover::<MList<u64>>(),
    ] {
        assert_eq!(refusal(result), ("Replay", Some(1)));
    }
}

/// The acceptance run: a 120-round collaborative-editing program, killed
/// mid-stream at a round boundary, must converge to the uninterrupted
/// run's exact final state after recovery + resumption — and the store
/// must be passive (a store-less run of the same program agrees).
#[test]
fn mid_stream_crash_recovery_converges_with_uninterrupted_run() {
    const ROUNDS: i64 = 120;

    // The program: the counter *is* the round number, incremented before
    // the merges of its round, so every round boundary is a commit
    // boundary in the journal (3 commits per round, the increment riding
    // in the first).
    fn rounds(ctx: &mut spawn_merge::TaskCtx<Doc>, upto: i64) {
        while ctx.data().2.get() < upto {
            let round = ctx.data().2.get() as u64;
            ctx.data_mut().2.add(1);
            doc_round(ctx, round);
        }
    }

    let options = StoreOptions {
        fsync: FsyncPolicy::EveryN(64),
        ..StoreOptions::default()
    };

    // Reference: uninterrupted, journaled run.
    let full_dir = scratch_dir("converge-full");
    let full_store = Store::open(&full_dir, options.clone()).unwrap();
    let fresh = || (MList::new(), MText::from("doc:"), MCounter::new(0));
    let (uninterrupted, ()) =
        run_with_store(fresh(), Pool::new(), &full_store, |ctx| rounds(ctx, ROUNDS)).unwrap();
    assert_eq!(uninterrupted.2.get(), ROUNDS);

    // Store passivity: the same program without a store computes the same
    // final state. (Digest-chain equality across runs is checked by the
    // store itself at every recovery; state equality is the user-visible
    // half of the theorem.)
    let (plain, ()) = run(fresh(), |ctx| rounds(ctx, ROUNDS));
    assert_eq!(doc_digest(&plain), doc_digest(&uninterrupted));

    // Interrupted: run the identical program, then "crash" by truncating
    // the WAL at the commit boundary closing round 60 (seq = 3 per round
    // × 60 rounds) in a copied crash image.
    let half_dir = scratch_dir("converge-half");
    let half_store = Store::open(&half_dir, options.clone()).unwrap();
    let (_, ()) =
        run_with_store(fresh(), Pool::new(), &half_store, |ctx| rounds(ctx, ROUNDS)).unwrap();
    let cut_seq = 3 * 60;
    drop(half_store);
    let (segment, _, end) = commit_ends(&half_dir)
        .into_iter()
        .find(|&(_, seq, _)| seq == cut_seq)
        .expect("cut bound exists");
    let image = copy_dir(&half_dir, "converge-image");
    let target = image.join(segment.file_name().unwrap());
    fs::OpenOptions::new()
        .write(true)
        .open(&target)
        .unwrap()
        .set_len(end)
        .unwrap();

    // Recover the prefix and resume the remaining 60 rounds.
    let resumed_store = Store::open(&image, options).unwrap();
    let rec = resumed_store.recover::<Doc>().unwrap().expect("journal");
    assert_eq!(rec.last_seq, cut_seq);
    assert_eq!(
        rec.data.2.get(),
        60,
        "cut lands exactly on a round boundary"
    );
    let (resumed, ()) = run_with_store(rec.data, Pool::new(), &resumed_store, |ctx| {
        rounds(ctx, ROUNDS)
    })
    .unwrap();

    assert_eq!(
        doc_digest(&resumed),
        doc_digest(&uninterrupted),
        "mid-stream recovery must converge to the uninterrupted final state"
    );
}

/// `recover` (one scan, then `replay_commits`, which the list types
/// batch) and the `recover_serial` reference (the same scan, then
/// per-commit `apply_log`) must be observationally identical: same state,
/// same per-child digest chains, same bookkeeping, same primed store — on
/// a mixed-op journal (plain lane), an insert-only journal (batch lane)
/// and a journal with a stale pre-snapshot segment.
#[test]
fn recover_and_serial_recovery_agree_on_state_and_chains() {
    // Mixed multi-structure workload: three children per round plus
    // root-local counter edits, so several digest chains interleave.
    let dir = scratch_dir("differential-mixed");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let initial: Doc = (MList::new(), MText::from("seed:"), MCounter::new(0));
    let (live, ()) = run_with_store(initial, Pool::new(), &store, |ctx| {
        for round in 0..12 {
            doc_round(ctx, round);
            ctx.data_mut().2.add(1);
        }
    })
    .unwrap();

    let serial = Store::open(&dir, StoreOptions::default())
        .unwrap()
        .recover_serial::<Doc>()
        .unwrap()
        .expect("journal exists");
    let recovered = Store::open(&dir, StoreOptions::default())
        .unwrap()
        .recover::<Doc>()
        .unwrap()
        .expect("journal exists");
    assert_eq!(doc_digest(&serial.data), doc_digest(&live));
    assert_eq!(doc_digest(&recovered.data), doc_digest(&live));
    assert_eq!(
        serial.chains, recovered.chains,
        "digest chains must match op-for-op"
    );
    assert_eq!(serial.last_seq, recovered.last_seq);
    assert_eq!(serial.replayed_ops, recovered.replayed_ops);
    assert_eq!(serial.snapshot_seq, recovered.snapshot_seq);

    // Insert-only journal across several segments: the shape the batch
    // replay lane accelerates.
    let dir = scratch_dir("differential-inserts");
    let options = StoreOptions {
        fsync: FsyncPolicy::EveryN(16),
        segment_bytes: 4096,
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options.clone()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    let mut rng = Lcg::new(0xD1FF);
    for _ in 0..40 {
        for _ in 0..25 {
            let at = (rng.next() as usize) % (data.len() + 1);
            data.insert(at, rng.next());
        }
        store.commit(&data, &TaskPath::root()).unwrap();
    }
    store.sync().unwrap();

    let serial = Store::open(&dir, options.clone())
        .unwrap()
        .recover_serial::<MList<u64>>()
        .unwrap()
        .expect("journal exists");
    let recovered = Store::open(&dir, options)
        .unwrap()
        .recover::<MList<u64>>()
        .unwrap()
        .expect("journal exists");
    assert_eq!(serial.data.to_vec(), data.to_vec());
    assert_eq!(recovered.data.to_vec(), data.to_vec());
    assert_eq!(serial.chains, recovered.chains);
    assert_eq!(serial.replayed_ops, recovered.replayed_ops);

    // A snapshot that left its covered segments behind (the crash
    // between snapshot and prune: the snapshots' prunes are undone from
    // copies): both recoveries skip the stale commits, and both prime the
    // store alike — the next commit journals the same slice on the same
    // chain and advances the history marks by the same amount. (The
    // marks themselves are each recovery's own numbering: the list batch
    // lane installs replayed state without re-recording the history the
    // journal already holds.)
    let dir = scratch_dir("differential-stale");
    let kept = scratch_dir("differential-stale-kept");
    let options = StoreOptions {
        segment_bytes: 1024,
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options.clone()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    for round in 0..15u64 {
        for _ in 0..10 {
            let at = (rng.next() as usize) % (data.len() + 1);
            data.insert(at, rng.next());
        }
        store
            .commit(&data, &TaskPath::root().child(round % 2))
            .unwrap();
        // Every 60 ops, as `snapshot_every_ops: 60` would.
        if round % 6 == 5 {
            snapshot_keeping(&store, &data, &kept);
        }
    }
    store.sync().unwrap();
    drop(store);
    let dir = unpruned(&dir, &kept, "differential-stale-unpruned");
    let stale_segment = wal_segments(&dir).remove(0);
    assert!(stale_segment.ends_with("wal-00000000000000000001"));

    let continued = |image: &Path, serial: bool| {
        let store = Store::open(image, options.clone()).unwrap();
        let rec = if serial {
            store.recover_serial::<MList<u64>>()
        } else {
            store.recover::<MList<u64>>()
        }
        .unwrap()
        .expect("journal exists");
        assert!(rec.snapshot_seq > 0, "replay starts past the stale segment");
        assert_eq!(rec.data.to_vec(), data.to_vec());
        let mut marks = Vec::new();
        rec.data.history_marks(&mut marks);
        let mut next = rec.data;
        next.insert(3, 0xC0);
        next.push(0xC1);
        store.commit_now(&next, &TaskPath::root().child(1)).unwrap();
        let appended = fs::read(wal_segments(image).pop().unwrap()).unwrap();
        let (_, payload) = Frames::new(&appended).next().expect("one new commit");
        let Record::Commit(next) = Record::from_bytes(payload).unwrap() else {
            panic!("WAL must hold commit records");
        };
        let advance: Vec<usize> = next.marks.iter().zip(&marks).map(|(a, b)| a - b).collect();
        (
            (rec.snapshot_seq, rec.last_seq, rec.replayed_ops, rec.chains),
            (
                next.seq,
                next.child,
                next.ops_count,
                next.ops.to_vec(),
                next.chain,
            ),
            advance,
        )
    };
    let serial = continued(&copy_dir(&dir, "differential-stale-serial"), true);
    let recovered = continued(&copy_dir(&dir, "differential-stale-shipped"), false);
    assert_eq!(serial, recovered);
}

/// Stores used to write delta snapshots too: `snap-delta-<seq>` files
/// holding one framed tag-3 record (seq, base seq, marks, chains, then
/// the state as chunk runs against the full snapshot at the base seq). A
/// delta never authorized pruning, so the full snapshot and the WAL it
/// left behind always cover one: recovery ignores the file, and both
/// recoveries return exactly what they return without it.
#[test]
fn a_leftover_delta_snapshot_file_is_inert() {
    let dir = scratch_dir("leftover-delta");
    let options = StoreOptions {
        fsync: FsyncPolicy::EveryN(8),
        snapshot_every_ops: 100,
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options.clone()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    let mut rng = Lcg::new(0xDE17A);
    for _ in 0..11 {
        for _ in 0..20 {
            let at = (rng.next() as usize) % (data.len() + 1);
            data.insert(at, rng.next());
        }
        store.commit(&data, &TaskPath::root()).unwrap();
    }
    store.sync().unwrap();
    let last_seq = store.last_seq();
    drop(store);

    // `(recover, recover_serial)`, each on its own copy of `dir`.
    let recover_both = |tag: &str| {
        let recovered = |serial: bool| {
            let copy = copy_dir(&dir, &format!("leftover-delta-{tag}-{serial}"));
            let store = Store::open(copy, options.clone()).unwrap();
            let rec = if serial {
                store.recover_serial::<MList<u64>>()
            } else {
                store.recover::<MList<u64>>()
            };
            let rec = rec.unwrap().expect("journal exists");
            (
                rec.data.to_vec(),
                rec.chains,
                rec.snapshot_seq,
                rec.replayed_ops,
            )
        };
        (recovered(false), recovered(true))
    };
    let without = recover_both("without");
    assert_eq!(without.0, without.1);
    assert_eq!(without.0 .0, data.to_vec());
    assert!(
        without.0 .2 > 0 && without.0 .3 > 0,
        "a full snapshot fired and commits after it replay"
    );

    // The delta as those stores wrote it: newer than the full snapshot,
    // naming it as its base, covering every commit, the state carried as
    // one literal chunk. Honoured, it would replay nothing.
    let (_, chains, base_seq, _) = &without.0;
    data.seal_history();
    let mut marks = Vec::new();
    data.history_marks(&mut marks);
    let mut state = BytesMut::new();
    data.encode_state(&mut state);
    let mut record = BytesMut::new();
    record.put_u8(3);
    put_varint(&mut record, last_seq);
    put_varint(&mut record, *base_seq);
    put_varint(&mut record, marks.len() as u64);
    for mark in &marks {
        put_varint(&mut record, *mark as u64);
    }
    put_varint(&mut record, chains.len() as u64);
    for (path, chain) in chains {
        put_varint(&mut record, path.len() as u64);
        for id in path {
            put_varint(&mut record, *id);
        }
        put_varint(&mut record, *chain);
    }
    // Chunk runs (1), one run, a literal chunk (1), its elements.
    put_varint(&mut record, 3 + state.len() as u64);
    record.put_slice(&[1, 1, 1]);
    record.put_slice(&state);
    let mut framed = Vec::new();
    encode_frame(&record, &mut framed);
    fs::write(dir.join(format!("snap-delta-{last_seq:020}")), framed).unwrap();

    assert_eq!(recover_both("with"), without);
}

/// Retention crash-consistency: a crash after the full snapshot but
/// before (or midway through) pruning leaves extra covered files behind
/// — recovery must ignore them and reproduce the same state.
#[test]
fn crash_between_snapshot_and_prune_leaves_recovery_sound() {
    // The crash *before* any deletion: every covered snapshot and
    // segment, kept from before each snapshot, survives alongside the
    // newest full snapshot.
    let live = scratch_dir("prune-crash-live");
    let kept = scratch_dir("prune-crash-kept");
    let options = StoreOptions {
        fsync: FsyncPolicy::EveryN(4),
        segment_bytes: 2048,
        snapshot_every_ops: 0,
    };
    let store = Store::open(&live, options.clone()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    let mut rng = Lcg::new(0x9121);
    for round in 0..20 {
        for _ in 0..10 {
            let at = (rng.next() as usize) % (data.len() + 1);
            data.insert(at, rng.next());
        }
        store.commit(&data, &TaskPath::root()).unwrap();
        // Every 30 ops, as `snapshot_every_ops: 30` would.
        if round % 3 == 2 {
            snapshot_keeping(&store, &data, &kept);
        }
    }
    store.sync().unwrap();
    drop(store);
    let dir = unpruned(&live, &kept, "prune-crash");

    let names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.contains(&"snap-00000000000000000000".to_string()),
        "an unpruned journal keeps the genesis snapshot, found {names:?}"
    );
    let snaps: Vec<u64> = names
        .iter()
        .filter_map(|n| n.strip_prefix("snap-"))
        .filter_map(|s| s.parse().ok())
        .collect();
    let newest_snap = *snaps.iter().max().unwrap();
    assert!(newest_snap > 0, "automatic snapshots fired");

    let rec = Store::open(&dir, options.clone())
        .unwrap()
        .recover::<MList<u64>>()
        .unwrap()
        .expect("journal exists");
    assert_eq!(rec.data.to_vec(), data.to_vec());

    // Crash mid-prune: delete a strict subset of the covered segments
    // (those entirely below the newest snapshot) and recover again.
    let mut wals: Vec<(u64, PathBuf)> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter_map(|p| {
            let seq: u64 = p
                .file_name()?
                .to_str()?
                .strip_prefix("wal-")?
                .parse()
                .ok()?;
            Some((seq, p))
        })
        .collect();
    wals.sort();
    let covered: Vec<&(u64, PathBuf)> = wals
        .iter()
        .zip(wals.iter().skip(1))
        .filter(|(_, next)| next.0 <= newest_snap + 1)
        .map(|(cur, _)| cur)
        .collect();
    assert!(
        covered.len() >= 2,
        "tiny segments must leave several covered ones, got {}",
        covered.len()
    );
    fs::remove_file(&covered[covered.len() / 2].1).unwrap();

    let rec = Store::open(&dir, options)
        .unwrap()
        .recover::<MList<u64>>()
        .unwrap()
        .expect("journal exists");
    assert_eq!(
        rec.data.to_vec(),
        data.to_vec(),
        "partially pruned covered segments must not change recovery"
    );
}

/// `Store::commit` reports `Err` only when the record was not appended:
/// an automatic snapshot that fails *after* the append is parked for
/// `take_error`, and recovery replays the commit the journal holds.
#[test]
fn snapshot_failure_after_append_is_parked_not_returned() {
    let dir = scratch_dir("snap-after-append");
    let options = StoreOptions {
        snapshot_every_ops: 1,
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options.clone()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    // A directory squatting on the snapshot's temp path makes the
    // automatic snapshot of commit 1 fail at `File::create`.
    fs::create_dir(dir.join("snap-00000000000000000001.tmp")).unwrap();

    data.push(7);
    store
        .commit(&data, &TaskPath::root())
        .expect("the record was appended, so the commit succeeded");
    assert_eq!(store.last_seq(), 1);
    assert!(
        matches!(store.take_error(), Some(StoreError::Io(_))),
        "the snapshot failure must be parked"
    );
    drop(store);

    let rec = Store::open(&dir, options)
        .unwrap()
        .recover::<MList<u64>>()
        .unwrap()
        .expect("journal exists");
    assert_eq!(rec.replayed_ops, 1, "no snapshot covers the commit");
    assert_eq!(rec.data.to_vec(), vec![7]);
}
