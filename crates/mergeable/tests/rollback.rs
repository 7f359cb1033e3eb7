//! `Mergeable::rollback_to` makes an in-place merge transactional: a head
//! that merged a commit, was sealed for the journal, and was then rolled
//! back to its newest fork must be indistinguishable — state bytes,
//! history marks, retained log length, and the bytes, marks and log
//! length of the *next* commit — from a twin that never merged that
//! commit.
//!
//! Beside the proptests, two sweeps cover a small scope exhaustively:
//! every script of at most two edits over `MList<u8>` and `MText` bases
//! of zero to three units. The rollback sweep forks, edits, merges,
//! seals and rolls back to the newest fork, against a twin that never
//! merged; the truncation sweep drops the history prefix at every legal
//! watermark and checks that the next commit encodes the same bytes.
//! Both print and pin their tally, and both run in well under a second in a
//! debug build.

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

    let mut now = Vec::new();
    head.history_marks(&mut now);
    assert_eq!(now, marks, "the head is back at its newest fork point");
    observe(&mut head, |d| commit(d, &old, |d| edit(d, next)))
}

/// The head as it stands, then as `next` leaves it, read against the
/// history marks it has now.
fn observe<D: Persist>(head: &mut D, next: impl FnOnce(&mut D)) -> Witness {
    let state = state_bytes(head);
    let mut marks = Vec::new();
    head.history_marks(&mut marks);
    let pending = head.pending_ops();
    next(head);
    let mut next_slice = BytesMut::new();
    head.encode_committed_since(&marks, &mut 0, &mut next_slice);
    let mut next_marks = Vec::new();
    head.history_marks(&mut next_marks);
    Witness {
        state,
        marks,
        pending,
        next_slice: next_slice.to_vec(),
        next_state: state_bytes(head),
        next_marks,
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

/// One exact edit of the sweeps. `Set` is a list `set`; in a text, which
/// has none, it is a two-character delete.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Insert(usize),
    Remove(usize),
    Set(usize),
}

/// A sequence the sweeps run over.
trait Sweep: Persist {
    /// The units one `Set` covers.
    const SET_WIDTH: usize;
    fn base(units: usize) -> Self;
    fn units(&self) -> usize;
    fn apply(&mut self, edit: Edit, unit: u8);
}

impl Sweep for MList<u8> {
    const SET_WIDTH: usize = 1;

    fn base(units: usize) -> Self {
        MList::from_vec((1..=units as u8).collect())
    }

    fn units(&self) -> usize {
        self.len()
    }

    fn apply(&mut self, edit: Edit, unit: u8) {
        match edit {
            Edit::Insert(i) => self.insert(i, unit),
            Edit::Remove(i) => {
                self.remove(i);
            }
            Edit::Set(i) => self.set(i, unit),
        }
    }
}

impl Sweep for MText {
    const SET_WIDTH: usize = 2;

    fn base(units: usize) -> Self {
        MText::from(&"xyz"[..units])
    }

    fn units(&self) -> usize {
        self.char_len()
    }

    fn apply(&mut self, edit: Edit, unit: u8) {
        match edit {
            Edit::Insert(i) => self.insert_str(i, char::from(unit).to_string()),
            Edit::Remove(i) => self.delete_range(i, 1),
            Edit::Set(i) => self.delete_range(i, 2),
        }
    }
}

/// Every edit `s` takes: an insert at each position, a remove at each
/// unit, a `Set` at each start it fits.
fn every_edit<S: Sweep>(s: &S) -> impl Iterator<Item = Edit> {
    let n = s.units();
    (0..=n)
        .map(Edit::Insert)
        .chain((0..n).map(Edit::Remove))
        .chain((0..(n + 1).saturating_sub(S::SET_WIDTH)).map(Edit::Set))
}

/// Every script of at most two edits `s` takes.
fn every_script<S: Sweep>(s: &S) -> Vec<Vec<Edit>> {
    let mut out = vec![vec![]];
    for first in every_edit(s) {
        let mut after = s.clone();
        after.apply(first, 0);
        out.push(vec![first]);
        out.extend(every_edit(&after).map(|second| vec![first, second]));
    }
    out
}

/// Run `script`, the units it inserts or sets numbered from `unit`.
fn run<S: Sweep>(s: &mut S, script: &[Edit], unit: u8) {
    for (k, &edit) in script.iter().enumerate() {
        s.apply(edit, unit + k as u8);
    }
}

/// A child forked from `head` runs `script`; `head` merges it and seals.
fn merge_sealed<S: Sweep>(head: &mut S, script: &[Edit]) {
    let mut child = head.fork();
    run(&mut child, script, b'A');
    head.merge(&child).unwrap();
    head.seal_history();
}

/// Cases swept, per sweep.
#[derive(Debug, Default)]
struct Tally {
    rollbacks: usize,
    truncations: usize,
}

/// Both sweeps over one kind of sequence, bases of zero to three units.
fn sweep<S: Sweep>() -> Tally {
    let mut tally = Tally::default();
    for units in 0..=3 {
        let base = S::base(units);
        let scripts = every_script(&base);
        for undone in &scripts {
            // The rollback sweep: the head writes `next` itself, so a
            // fuse barrier the rollback left raised shows as an unfused
            // op in the retained log.
            for next in &scripts {
                let rolled_back = {
                    let mut head = base.clone();
                    let newest = head.fork();
                    merge_sealed(&mut head, undone);
                    head.rollback_to(&newest);
                    observe(&mut head, |h| run(h, next, b'n'))
                };
                let twin = {
                    let mut head = base.clone();
                    let _newest = head.fork();
                    observe(&mut head, |h| run(h, next, b'n'))
                };
                assert_eq!(
                    rolled_back, twin,
                    "base {units}, undone {undone:?}, next {next:?}"
                );
                tally.rollbacks += 1;
            }

            // The truncation sweep: `undone` is committed here, and the
            // next commit's slice starts at the history marks it left,
            // so every watermark up to them is legal.
            let mut head = base.clone();
            merge_sealed(&mut head, undone);
            let mut marks = Vec::new();
            head.history_marks(&mut marks);
            for next in &every_script(&head) {
                let whole = observe(&mut head.clone(), |h| run(h, next, b'n'));
                for watermark in 0..=marks[0] {
                    let mut cut = head.clone();
                    assert_eq!(cut.truncate_history(&[watermark], &mut 0), watermark);
                    let mut seen = observe(&mut cut, |h| run(h, next, b'n'));
                    seen.pending += watermark;
                    seen.next_pending += watermark;
                    assert_eq!(
                        seen, whole,
                        "base {units}, committed {undone:?}, watermark {watermark}, next {next:?}"
                    );
                    tally.truncations += 1;
                }
            }
        }
    }
    tally
}

#[test]
fn every_small_list_rollback_and_truncation_matches_its_twin() {
    let tally = sweep::<MList<u8>>();
    println!("list: {tally:?}");
    assert_eq!((tally.rollbacks, tally.truncations), (17_208, 63_096));
}

#[test]
fn every_small_text_rollback_and_truncation_matches_its_twin() {
    let tally = sweep::<MText>();
    println!("text: {tally:?}");
    assert_eq!((tally.rollbacks, tally.truncations), (8_719, 29_092));
}
