//! A fast-forward merge ≡ its replay. When the parent committed nothing
//! since the fork and still holds the very state the child was handed,
//! `merge` takes the child's state instead of re-applying the child's log
//! to its own. Everything observable must come out as the replay leaves
//! it: state, history marks, `MergeStats`, the committed slice the next
//! journal commit encodes, then one more merged round (a rebase over a
//! parent edit), a second fast-forward and the `pristine` copies.
//!
//! The replay is a twin parent built by the same calls: the same history
//! and fuse barrier, but a state allocation of its own, which the child was
//! not handed, so its merge re-applies. For the nine leaves, an outside
//! `impl Leaf`, a tuple, a `Vec` and a `mergeable_struct!` (a scalar kept
//! by value applies its run instead of taking a state). Then the
//! merges that must not fast-forward, each checked against a merge that
//! cannot: a parent that wrote since the fork, `Persist::merge_log`
//! (`Versioned::merge_run`), which has no child state to take, a parent
//! that rolled back to an earlier fork and recorded back up to the same
//! history length, and a child that dropped a prefix of its own log.

use bytes::{Bytes, BytesMut};
use sm_mergeable::{
    mergeable_struct, Leaf, MCounter, MCounterMap, MList, MMap, MQueue, MRegister, MSet, MText,
    MTree, MergeStats, Mergeable, Persist, Versioned,
};
use sm_ot::counter::CounterOp;
use sm_ot::tree::Node;

/// A structure under test.
struct Subject<M> {
    name: &'static str,
    /// A root, most with an edit recorded, so forks sit past 0.
    make: fn() -> M,
    /// The observable state, as bytes.
    state: fn(&M) -> Vec<u8>,
    /// What a journal commit taken at `marks` would encode next.
    since: fn(&M, &[usize]) -> Vec<u8>,
    /// Whether the field `child_edit` writes holds one state on both
    /// sides.
    shares: fn(&M, &M) -> bool,
    /// Whether a copy-on-write fast-forward takes the child's state, as
    /// `shares` sees it: a scalar kept by value applies the run instead.
    takes_state: bool,
    child_edit: fn(&mut M),
    parent_edit: fn(&mut M),
    /// `Persist::merge_log` of the child's log, where the subject has it.
    merge_log: Option<fn(&mut M, &M) -> MergeStats>,
}

fn encode<P: Persist>(p: &P) -> Vec<u8> {
    let mut buf = BytesMut::new();
    p.encode_state(&mut buf);
    buf.to_vec()
}

fn since<P: Persist>(p: &P, marks: &[usize]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    p.encode_committed_since(marks, &mut 0, &mut buf);
    buf.to_vec()
}

fn history_marks<M: Mergeable>(m: &M) -> Vec<usize> {
    let mut out = Vec::new();
    m.history_marks(&mut out);
    out
}

fn same_state<L: Leaf>(a: &L, b: &L) -> bool {
    a.versioned().shares_state_with(b.versioned())
}

/// The session path: `child`'s log shipped as bytes and merged from the
/// copy its fork handed it, with no child state to take.
fn via_log<P: Persist>(parent: &mut P, child: &P) -> MergeStats {
    let mut buf = BytesMut::new();
    child.encode_log(&mut buf);
    let mut bytes: Bytes = buf.freeze();
    parent.merge_log(&child.pristine(), &mut bytes).unwrap()
}

/// Everything a merge left that the comparison reads.
fn seen<M: Mergeable>(s: &Subject<M>, m: &M, marks: &[usize]) -> (Vec<u8>, Vec<usize>, Vec<u8>) {
    ((s.state)(m), history_marks(m), (s.since)(m, marks))
}

fn differential<M: Mergeable>(s: &Subject<M>) {
    let at = s.name;
    let mut ff = (s.make)();
    let mut replay = (s.make)();
    let mut child = ff.fork();
    // The twin's fork raises its fuse barrier where `ff`'s is.
    let _twin = replay.fork();
    (s.child_edit)(&mut child);
    let mut twin_child = child.clone();
    let marks = history_marks(&ff);

    let ff_stats = ff.merge(&child).unwrap();
    let replay_stats = replay.merge(&twin_child).unwrap();
    assert_eq!(
        (s.shares)(&ff, &child),
        s.takes_state,
        "{at}: fast-forward taken"
    );
    assert!(!(s.shares)(&replay, &twin_child), "{at}: twin replayed");
    assert_eq!(ff_stats, replay_stats, "{at}: stats");
    assert_eq!(seen(s, &ff, &marks), seen(s, &replay, &marks), "{at}");

    // The child syncs and goes on: a round over a parent edit, which
    // rebases, then one the parent sits out, which fast-forwards again.
    child.refork(&ff);
    twin_child.refork(&replay);
    for parent_writes in [true, false] {
        let at = format!("{at} next round, parent writes: {parent_writes}");
        let marks = history_marks(&ff);
        (s.child_edit)(&mut child);
        (s.child_edit)(&mut twin_child);
        if parent_writes {
            (s.parent_edit)(&mut ff);
            (s.parent_edit)(&mut replay);
        }
        assert_eq!(
            (s.state)(&child.pristine()),
            (s.state)(&twin_child.pristine()),
            "{at}: child pristine"
        );
        let ff_stats = ff.merge(&child).unwrap();
        let replay_stats = replay.merge(&twin_child).unwrap();
        assert_eq!(ff_stats, replay_stats, "{at}: stats");
        assert_eq!(seen(s, &ff, &marks), seen(s, &replay, &marks), "{at}");
        child.refork(&ff);
        twin_child.refork(&replay);
    }
    assert_eq!(
        (s.state)(&child.pristine()),
        (s.state)(&twin_child.pristine()),
        "{at}: pristine after the rounds"
    );
}

fn parent_wrote_since_the_fork<M: Mergeable>(s: &Subject<M>) {
    let at = format!("{} parent wrote", s.name);
    let mut parent = (s.make)();
    let mut child = parent.fork();
    (s.child_edit)(&mut child);
    (s.parent_edit)(&mut parent);
    let stats = parent.merge(&child).unwrap();
    assert!(!(s.shares)(&parent, &child), "{at}: fast-forwarded");
    assert_eq!(stats.child_ops, child.pending_ops(), "{at}: child ops");
    assert!(stats.committed_ops > 0, "{at}: committed ops");
    // Every subject's two edits commute: the concurrent merge lands
    // where the edits made one after the other land.
    let mut serial = (s.make)();
    (s.parent_edit)(&mut serial);
    (s.child_edit)(&mut serial);
    assert_eq!((s.state)(&parent), (s.state)(&serial), "{at}: state");
}

fn merge_log_keeps_the_apply<M: Mergeable>(s: &Subject<M>) {
    let Some(merge_log) = s.merge_log else {
        return;
    };
    let at = format!("{} merge_log", s.name);
    let mut ff = (s.make)();
    let mut child = ff.fork();
    // A clone holds `ff`'s very state: only the missing child state
    // keeps the session merge off the fast-forward.
    let mut session = ff.clone();
    (s.child_edit)(&mut child);
    let marks = history_marks(&ff);
    let ff_stats = ff.merge(&child).unwrap();
    let session_stats = merge_log(&mut session, &child);
    assert!(!(s.shares)(&session, &child), "{at}: applied");
    assert_eq!(ff_stats, session_stats, "{at}: stats");
    assert_eq!(seen(s, &ff, &marks), seen(s, &session, &marks), "{at}");
}

fn check<M: Mergeable>(s: &Subject<M>) {
    differential(s);
    parent_wrote_since_the_fork(s);
    merge_log_keeps_the_apply(s);
}

/// The crate docs' vote tally: a structure with nothing but `impl Leaf`.
#[derive(Clone, Debug)]
struct Tally(Versioned<CounterOp>);

impl Leaf for Tally {
    type Op = CounterOp;

    fn versioned(&self) -> &Versioned<CounterOp> {
        &self.0
    }

    fn versioned_mut(&mut self) -> &mut Versioned<CounterOp> {
        &mut self.0
    }

    fn wrap(inner: Versioned<CounterOp>) -> Self {
        Tally(inner)
    }
}

impl Tally {
    fn count(&mut self, n: i64) {
        self.0.record_validated(CounterOp::add(n));
    }
}

#[test]
fn every_leaf_fast_forwards_like_its_replay() {
    check(&Subject {
        name: "MList",
        make: || {
            let mut l = MList::from_vec(vec![1u32, 2, 3]);
            l.push(9);
            l
        },
        state: encode,
        since,
        shares: same_state,
        takes_state: true,
        child_edit: |l| l.insert(0, 7),
        parent_edit: |l| l.push(9),
        merge_log: Some(via_log),
    });
    check(&Subject {
        name: "MText",
        make: || {
            let mut t = MText::new();
            t.push_str("hello");
            t
        },
        state: encode,
        since,
        shares: same_state,
        takes_state: true,
        child_edit: |t| t.insert_str(0, "a"),
        parent_edit: |t| t.push_str("!"),
        merge_log: Some(via_log),
    });
    check(&Subject {
        name: "MQueue",
        make: || MQueue::from_vec(vec![1u32, 2, 3, 4, 5, 6]),
        state: encode,
        since,
        shares: same_state,
        takes_state: true,
        child_edit: |q| {
            q.pop_front();
        },
        parent_edit: |q| q.push_back(5),
        merge_log: Some(via_log),
    });
    check(&Subject {
        name: "MMap",
        make: || {
            let mut m = MMap::<u32, u32>::new();
            m.insert(2, 20);
            m
        },
        state: encode,
        since,
        shares: same_state,
        takes_state: true,
        child_edit: |m| {
            m.insert(1, 10);
        },
        parent_edit: |m| {
            let n = m.len() as u32;
            m.insert(100 + n, n);
        },
        merge_log: Some(via_log),
    });
    check(&Subject {
        name: "MSet",
        make: || {
            let mut s = MSet::<u32>::new();
            s.insert(2);
            s
        },
        state: encode,
        since,
        shares: same_state,
        takes_state: true,
        child_edit: |s| {
            s.insert(1);
        },
        parent_edit: |s| {
            let n = s.len() as u32;
            s.insert(100 + n);
        },
        merge_log: Some(via_log),
    });
    check(&Subject {
        name: "MCounter",
        make: || {
            let mut c = MCounter::new(0);
            c.inc();
            c
        },
        state: encode,
        since,
        shares: same_state,
        takes_state: false,
        child_edit: |c| c.add(2),
        parent_edit: MCounter::inc,
        merge_log: Some(via_log),
    });
    check(&Subject {
        name: "MCounterMap",
        make: || {
            let mut m = MCounterMap::<u32>::new();
            m.add(2, 3);
            m
        },
        state: encode,
        since,
        shares: same_state,
        takes_state: true,
        child_edit: |m| m.inc(1),
        parent_edit: |m| m.add(2, 3),
        merge_log: Some(via_log),
    });
    check(&Subject {
        name: "MRegister",
        make: || {
            let mut r = MRegister::new(0u32);
            r.set(2);
            r
        },
        state: encode,
        since,
        shares: same_state,
        takes_state: false,
        child_edit: |r| r.set(1),
        parent_edit: |r| {
            let v = *r.get();
            r.set(v + 2);
        },
        merge_log: Some(via_log),
    });
    check(&Subject {
        name: "MTree",
        make: || {
            let mut t = MTree::new(0u32);
            t.push_child(&[], Node::leaf(2));
            t
        },
        state: encode,
        since,
        shares: same_state,
        takes_state: true,
        child_edit: |t| t.set_value(vec![0], 1),
        parent_edit: |t| t.push_child(&[], Node::leaf(2)),
        merge_log: Some(via_log),
    });
    check(&Subject {
        name: "Tally",
        make: || {
            let mut t = Tally(Versioned::new(10));
            t.count(1);
            t
        },
        state: |t| t.0.state().to_le_bytes().to_vec(),
        since: |t, marks| {
            let from = marks[0] - t.0.log_start();
            format!("{:?}", &t.0.log()[from..]).into_bytes()
        },
        shares: same_state,
        takes_state: false,
        child_edit: |t| t.count(-3),
        parent_edit: |t| t.count(5),
        merge_log: None,
    });
}

type Trio = (MList<u32>, MCounter, MRegister<bool>);

#[test]
fn a_tuple_and_a_vec_fast_forward_like_their_replays() {
    check(&Subject::<Trio> {
        name: "tuple",
        make: || {
            let mut d = (
                MList::from_vec(vec![1u32]),
                MCounter::new(0),
                MRegister::new(false),
            );
            d.1.inc();
            d
        },
        state: encode,
        since,
        shares: |a, b| same_state(&a.0, &b.0),
        takes_state: true,
        child_edit: |d| d.0.push(2),
        parent_edit: |d| {
            d.0.push(3);
            d.1.inc();
        },
        merge_log: Some(via_log),
    });
    check(&Subject::<Vec<MCounter>> {
        name: "Vec",
        make: || {
            let mut v: Vec<MCounter> = (0..4).map(MCounter::new).collect();
            v[3].dec();
            v
        },
        state: encode,
        since,
        shares: |a, b| same_state(&a[1], &b[1]),
        takes_state: false,
        child_edit: |v| v[1].add(5),
        parent_edit: |v| {
            v[1].inc();
            v[3].dec();
        },
        merge_log: Some(via_log),
    });
}

mergeable_struct! {
    #[derive(Debug, Clone)]
    struct Composite {
        queues: Vec<MQueue<u64>>,
        total: MCounter,
        text: MText,
        done: MRegister<bool>,
    }
}

#[test]
fn a_mergeable_struct_fast_forwards_like_its_replay() {
    check(&Subject::<Composite> {
        name: "mergeable_struct",
        make: || {
            let mut d = Composite {
                queues: (0..3)
                    .map(|h| MQueue::from_vec(vec![h, h + 10, h + 20, h + 30]))
                    .collect(),
                total: MCounter::new(0),
                text: MText::new(),
                done: MRegister::new(false),
            };
            d.text.push_str("round ");
            d
        },
        state: |d| {
            let mut out = encode(&d.queues);
            out.extend(encode(&d.total));
            out.extend(encode(&d.text));
            out.extend(encode(&d.done));
            out
        },
        since: |d, marks| {
            let mut cursor = 0;
            let mut buf = BytesMut::new();
            d.queues
                .encode_committed_since(marks, &mut cursor, &mut buf);
            d.total.encode_committed_since(marks, &mut cursor, &mut buf);
            d.text.encode_committed_since(marks, &mut cursor, &mut buf);
            d.done.encode_committed_since(marks, &mut cursor, &mut buf);
            buf.to_vec()
        },
        shares: |a, b| same_state(&a.total, &b.total),
        takes_state: false,
        child_edit: |d| {
            let hop = d.queues[0].pop_front().unwrap_or_default();
            d.total.inc();
            d.queues[2].push_back(hop);
        },
        parent_edit: |d| {
            d.text.push_str("round ");
            d.total.add(10);
            d.done.set(true);
        },
        merge_log: None,
    });
}

#[test]
fn a_parent_rolled_back_and_recorded_back_to_the_fork_base_replays() {
    // The parent writes a, forks the child, rolls back past a and
    // writes b: the child's fork base is the history length again, but
    // the state it was handed is a's, not b's.
    let mut parent = (MCounter::new(0), MList::from_vec(vec![1u32]));
    let earlier = parent.fork();
    parent.0.add(1);
    parent.1.push(2);
    let mut child = parent.fork();
    child.0.add(2);
    child.1.insert(0, 7);
    parent.rollback_to(&earlier);
    parent.0.add(5);
    parent.1.push(3);
    let mut fork_marks = Vec::new();
    child.fork_marks(&mut fork_marks);
    assert_eq!(fork_marks, history_marks(&parent), "fork base");

    let stats = parent.merge(&child).unwrap();
    assert!(!same_state(&parent.0, &child.0), "fast-forwarded");
    assert!(!same_state(&parent.1, &child.1), "fast-forwarded");
    // The child's log over b; a fast-forward would have left a's 3
    // and [7, 1, 2].
    assert_eq!(parent.0.get(), 7);
    assert_eq!(parent.1.to_vec(), vec![7, 1, 3]);
    assert_eq!((stats.child_ops, stats.committed_ops), (2, 0));
}

#[test]
fn a_child_that_dropped_a_prefix_of_its_own_log_replays() {
    // The child's state holds both of its additions, its retained log
    // only the second: the parent must end where its history says.
    let mut parent = MCounter::new(0);
    let mut child = parent.fork();
    child.add(1);
    child.seal_history();
    child.add(2);
    assert_eq!(child.truncate_history(&[1], &mut 0), 1);
    let stats = parent.merge(&child).unwrap();
    assert!(!same_state(&parent, &child), "fast-forwarded");
    assert_eq!((parent.get(), stats.child_ops), (2, 1));
}
