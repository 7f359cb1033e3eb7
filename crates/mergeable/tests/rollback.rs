//! `Mergeable::rollback_to` makes an in-place merge transactional: a head
//! that merged a commit, was sealed for the journal, and was then rolled
//! back to its newest fork must be indistinguishable — state bytes,
//! history marks, retained log length, and the bytes, marks and log
//! length of the *next* commit — from a twin that never merged that
//! commit.

use bytes::BytesMut;
use proptest::prelude::*;
use sm_mergeable::{MCounter, MList, MText, Persist};

/// A scripted edit; positions are taken modulo the current shape, so any
/// script is valid on any state.
#[derive(Debug, Clone)]
enum Cmd {
    Insert(usize, u8),
    Remove(usize),
    Set(usize, u8),
}

fn cmds() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(
        prop_oneof![
            (any::<usize>(), any::<u8>()).prop_map(|(i, v)| Cmd::Insert(i, v)),
            any::<usize>().prop_map(Cmd::Remove),
            (any::<usize>(), any::<u8>()).prop_map(|(i, v)| Cmd::Set(i, v)),
        ],
        0..10,
    )
}

fn edit_list(l: &mut MList<u8>, script: &[Cmd]) {
    for c in script {
        match *c {
            Cmd::Insert(i, v) => l.insert(i % (l.len() + 1), v),
            Cmd::Remove(i) if !l.is_empty() => {
                l.remove(i % l.len());
            }
            Cmd::Set(i, v) if !l.is_empty() => l.set(i % l.len(), v),
            _ => {}
        }
    }
}

fn edit_text(t: &mut MText, script: &[Cmd]) {
    for c in script {
        match *c {
            Cmd::Insert(i, v) => t.insert_str(
                i % (t.char_len() + 1),
                char::from(b'a' + v % 26).to_string(),
            ),
            // `Set` doubles as a two-character range delete.
            Cmd::Remove(i) | Cmd::Set(i, _) if t.char_len() >= 2 => {
                t.delete_range(i % (t.char_len() - 1), 1 + i % 2)
            }
            _ => {}
        }
    }
}

type Composite = (MList<u8>, Vec<MText>, MCounter);

fn edit_composite(c: &mut Composite, script: &[Cmd]) {
    edit_list(&mut c.0, script);
    let (left, right) = script.split_at(script.len() / 2);
    edit_text(&mut c.1[0], left);
    edit_text(&mut c.1[1], right);
    c.2.add(script.len() as i64);
}

/// Everything a later commit, broadcast or attach can observe of a head.
#[derive(Debug, PartialEq)]
struct Witness {
    state: Vec<u8>,
    marks: Vec<usize>,
    pending: usize,
    next_slice: Vec<u8>,
    next_state: Vec<u8>,
    /// Marks and retained length after the next commit: a fuse barrier
    /// left behind by the undone commit would show here as unfused ops.
    next_marks: Vec<usize>,
    next_pending: usize,
}

fn state_bytes<D: Persist>(d: &D) -> Vec<u8> {
    let mut buf = BytesMut::new();
    d.encode_state(&mut buf);
    buf.to_vec()
}

/// The session server's commit: replay onto a clone of the fork base,
/// merge in place, seal as the journal does.
fn commit<D: Persist>(head: &mut D, base: &D, edit: impl Fn(&mut D)) {
    let mut work = base.clone();
    edit(&mut work);
    head.merge(&work).unwrap();
    head.seal_history();
}

/// Drive `genesis` through: local edits, an old fork base, a first
/// commit, the newest fork base — then (if `undone` is given) a second
/// commit that is merged, sealed and rolled back — then a last commit.
fn witness<D: Persist>(
    genesis: D,
    edit: impl Fn(&mut D, &[Cmd]),
    [pre, first, next]: [&[Cmd]; 3],
    undone: Option<&[Cmd]>,
) -> Witness {
    let mut head = genesis;
    edit(&mut head, pre);
    head.seal_history();
    let old = head.fork();
    commit(&mut head, &old, |d| edit(d, first));
    let mut marks = Vec::new();
    head.history_marks(&mut marks);
    let newest = head.fork();

    if let Some(script) = undone {
        commit(&mut head, &old, |d| edit(d, script));
        head.rollback_to(&newest);
    }

    let state = state_bytes(&head);
    let mut now = Vec::new();
    head.history_marks(&mut now);
    assert_eq!(now, marks, "the head is back at its newest fork point");
    let pending = head.pending_ops();

    commit(&mut head, &old, |d| edit(d, next));
    let mut next_slice = BytesMut::new();
    head.encode_committed_since(&marks, &mut 0, &mut next_slice);
    Witness {
        state,
        marks,
        pending,
        next_slice: next_slice.to_vec(),
        next_state: state_bytes(&head),
        next_marks: {
            now.clear();
            head.history_marks(&mut now);
            now
        },
        next_pending: head.pending_ops(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rolled_back_text_equals_a_twin_that_never_merged(
        pre in cmds(), first in cmds(), undone in cmds(), next in cmds(),
    ) {
        let run = |undone| witness(
            MText::from("the quick brown fox"), edit_text, [&pre, &first, &next], undone,
        );
        prop_assert_eq!(run(Some(&undone)), run(None));
    }

    #[test]
    fn rolled_back_list_equals_a_twin_that_never_merged(
        base in prop::collection::vec(any::<u8>(), 0..8),
        pre in cmds(), first in cmds(), undone in cmds(), next in cmds(),
    ) {
        let run = |undone| witness(
            MList::from_vec(base.clone()), edit_list, [&pre, &first, &next], undone,
        );
        prop_assert_eq!(run(Some(&undone)), run(None));
    }

    #[test]
    fn rolled_back_composite_equals_a_twin_that_never_merged(
        pre in cmds(), first in cmds(), undone in cmds(), next in cmds(),
    ) {
        let run = |undone| witness(
            (
                MList::from_vec(vec![1, 2, 3]),
                vec![MText::from("left"), MText::from("right")],
                MCounter::new(0),
            ),
            edit_composite,
            [&pre, &first, &next],
            undone,
        );
        prop_assert_eq!(run(Some(&undone)), run(None));
    }
}
