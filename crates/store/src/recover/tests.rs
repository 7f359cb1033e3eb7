//! Tamper cases that need the crate-private chain function: a forger who
//! recomputes the tampered commit's own chain value makes *that* link
//! verify, so the chain must catch the forgery at the child's next
//! commit — inside the same segment and across a segment boundary. A
//! rewritten `ops_count`, which the chain does not cover, must be refused
//! by both recoveries in the same words.

use std::fs;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use sm_mergeable::MList;
use sm_net::frame::{encode_frame, Frames};
use sm_obs::TaskPath;

use super::Recovered;
use crate::wal::{chain_update, CommitRecord, Record, FNV_OFFSET};
use crate::{Store, StoreError, StoreOptions};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sm-store-unit-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn segments(dir: &Path) -> Vec<PathBuf> {
    crate::store::list_files(dir, "wal-")
        .unwrap()
        .into_iter()
        .map(|(_, path)| path)
        .collect()
}

fn commits(segment: &Path) -> Vec<CommitRecord> {
    let bytes = fs::read(segment).unwrap();
    Frames::new(&bytes)
        .map(|(_, payload)| match Record::from_bytes(payload).unwrap() {
            Record::Commit(commit) => commit,
            other => panic!("WAL must hold commit records, found {other:?}"),
        })
        .collect()
}

/// Sixteen two-op commits alternating between two child paths, a few
/// per segment. Returns the directory, its options, and the journal as
/// `(segment index, commit)` in `seq` order.
fn interleaved_journal(tag: &str) -> (PathBuf, StoreOptions, Vec<(usize, CommitRecord)>) {
    let dir = scratch_dir(tag);
    let options = StoreOptions {
        segment_bytes: 160,
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options.clone()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    for i in 1..=16u64 {
        data.push(i);
        data.push(i * 100);
        store
            .commit_now(&data, &TaskPath::root().child(1 + i % 2))
            .unwrap();
    }
    drop(store);
    let journal: Vec<(usize, CommitRecord)> = segments(&dir)
        .iter()
        .enumerate()
        .flat_map(|(i, segment)| commits(segment).into_iter().map(move |c| (i, c)))
        .collect();
    assert_eq!(journal.len(), 16);
    assert!(journal.last().unwrap().0 >= 2, "tiny segments must rotate");
    (dir, options, journal)
}

/// Re-frame every segment of `dir`, passing commit `seq` through `edit`.
fn rewrite_commit(dir: &Path, seq: u64, mut edit: impl FnMut(&mut CommitRecord)) {
    for segment in segments(dir) {
        let mut out = Vec::new();
        for mut commit in commits(&segment) {
            if commit.seq == seq {
                edit(&mut commit);
            }
            encode_frame(Record::Commit(commit).to_bytes().as_slice(), &mut out);
        }
        fs::write(&segment, out).unwrap();
    }
}

/// Rewrite commit `seq` with its last op byte changed (a pushed value's
/// low bit, so the ops still decode and apply) and its chain value
/// recomputed over the tampered bytes, as a forger with the format in
/// hand would.
fn forge_commit(dir: &Path, journal: &[(usize, CommitRecord)], seq: u64) {
    let (_, target) = &journal[seq as usize - 1];
    let prev_chain = journal[..seq as usize - 1]
        .iter()
        .rev()
        .find(|(_, c)| c.child == target.child)
        .map_or(FNV_OFFSET, |(_, c)| c.chain);
    rewrite_commit(dir, seq, |commit| {
        let mut ops = commit.ops.to_vec();
        *ops.last_mut().unwrap() ^= 0x01;
        commit.chain = chain_update(prev_chain, seq, &ops);
        commit.ops = Bytes::copy_from_slice(&ops);
    });
}

/// One recovery of `dir` on a fresh store: the reference or the real one.
fn recover_list(dir: &Path, options: &StoreOptions, serial: bool) -> RecoverResult {
    let store = Store::open(dir, options.clone()).unwrap();
    if serial {
        store.recover_serial()
    } else {
        store.recover()
    }
}

type RecoverResult = Result<Option<Recovered<MList<u64>>>, StoreError>;

#[test]
fn a_miscounted_commit_is_refused_alike_by_both_recoveries() {
    // Commit 2 only inserts (the list replay's batch lane); commit 3
    // deletes (plain `apply_log`). The chain does not cover `ops_count`.
    let edits: [fn(&mut MList<u64>); 3] = [
        |d| d.push(3),
        |d| {
            d.insert(0, 4);
            d.push(5);
        },
        |d| {
            d.remove(1);
            d.push(6);
        },
    ];
    for seq in [2u64, 3] {
        let dir = scratch_dir(&format!("miscount-{seq}"));
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let mut data = MList::from_vec(vec![1u64, 2]);
        store.begin(&data).unwrap();
        for edit in edits {
            edit(&mut data);
            store.commit_now(&data, &TaskPath::root().child(1)).unwrap();
        }
        drop(store);
        let mut held = 0;
        rewrite_commit(&dir, seq, |commit| {
            held = commit.ops_count;
            commit.ops_count += 1;
        });
        let expected = format!(
            "commit {seq} replayed {held} of {} ops with 0 trailing bytes",
            held + 1
        );
        for serial in [true, false] {
            match recover_list(&dir, &StoreOptions::default(), serial) {
                Err(StoreError::Corrupt(msg)) if msg == expected => {}
                other => panic!("commit {seq} (serial={serial}): want {expected:?}, got {other:?}"),
            }
        }
    }
}

#[test]
fn forged_chain_link_is_caught_at_the_childs_next_commit() {
    let (_, _, journal) = interleaved_journal("forged-survey");
    let next_of = |seq: u64| {
        let (_, target) = &journal[seq as usize - 1];
        journal[seq as usize..]
            .iter()
            .find(|(_, c)| c.child == target.child)
            .expect("the child commits again")
    };
    // One forged commit whose successor shares its segment, one whose
    // successor opens a later segment.
    let same_segment = journal
        .iter()
        .find(|(i, c)| *i > 0 && next_of(c.seq).0 == *i)
        .map(|(_, c)| c.seq)
        .expect("a child commits twice inside one segment");
    let across = journal
        .iter()
        .find(|(i, c)| c.seq < 14 && next_of(c.seq).0 > *i)
        .map(|(_, c)| c.seq)
        .expect("a child's next commit sits past a rotation");

    for (case, seq) in [("forged-same", same_segment), ("forged-across", across)] {
        let (dir, options, journal) = interleaved_journal(case);
        forge_commit(&dir, &journal, seq);
        let caught_at = next_of(seq).1.seq;
        for serial in [true, false] {
            match recover_list(&dir, &options, serial) {
                Err(StoreError::DigestMismatch { seq: at, .. }) if at == caught_at => {}
                other => panic!(
                    "{case} (serial={serial}): forged commit {seq} must trip the chain \
                     at commit {caught_at}, got {other:?}"
                ),
            }
        }
    }
}
