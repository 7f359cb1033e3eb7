//! `child.refork(&parent)` is `child = parent.fork()`, done in place: what
//! a `Sync`ed child continues on. For every leaf, a tuple, a `Vec` and a
//! `mergeable_struct!`, and whichever side edited
//! before the merge, the reforked child must hold what a fresh fork holds
//! (state, fork marks, no pending operations), and the next round — the
//! same operation recorded on the child and on the parent, then merged —
//! must come out the same in state, history marks and `MergeStats`. A
//! fork point or fuse barrier that refork got wrong shows in that round.

use bytes::BytesMut;
use sm_mergeable::{
    mergeable_struct, MCounter, MCounterMap, MList, MMap, MQueue, MRegister, MSet, MText, MTree,
    Mergeable, Persist,
};
use sm_ot::tree::Node;

/// Which side edited between the fork and the merge that precedes the
/// refork.
#[derive(Debug, Clone, Copy)]
enum Case {
    Neither,
    Child,
    Parent,
    Both,
}

const CASES: [Case; 4] = [Case::Neither, Case::Child, Case::Parent, Case::Both];

/// A structure under test: how to build it, read its state, and edit it
/// from the child's side and from the parent's.
struct Subject<M> {
    name: &'static str,
    make: fn() -> M,
    state: fn(&M) -> Vec<u8>,
    child_edit: fn(&mut M),
    parent_edit: fn(&mut M),
}

fn encode<P: Persist>(p: &P) -> Vec<u8> {
    let mut buf = BytesMut::new();
    p.encode_state(&mut buf);
    buf.to_vec()
}

fn fork_marks<M: Mergeable>(m: &M) -> Vec<usize> {
    let mut out = Vec::new();
    m.fork_marks(&mut out);
    out
}

fn history_marks<M: Mergeable>(m: &M) -> Vec<usize> {
    let mut out = Vec::new();
    m.history_marks(&mut out);
    out
}

/// A parent with history, a child forked from it, the `case`'s edits, the
/// merge — then the child continues on a fresh fork, built whole or by
/// `refork`.
fn world<M: Mergeable>(s: &Subject<M>, case: Case, refork: bool) -> (M, M) {
    let mut parent = (s.make)();
    (s.parent_edit)(&mut parent);
    let mut child = parent.fork();
    if matches!(case, Case::Child | Case::Both) {
        (s.child_edit)(&mut child);
    }
    if matches!(case, Case::Parent | Case::Both) {
        (s.parent_edit)(&mut parent);
    }
    parent.merge(&child).unwrap();
    if refork {
        child.refork(&parent);
    } else {
        child = parent.fork();
    }
    (parent, child)
}

fn check<M: Mergeable>(s: &Subject<M>) {
    for case in CASES {
        let at = format!("{} {case:?}", s.name);
        let (mut forked_parent, mut forked) = world(s, case, false);
        let (mut reforked_parent, mut reforked) = world(s, case, true);
        assert_eq!(reforked.pending_ops(), 0, "{at}: pending ops");
        assert_eq!(
            fork_marks(&reforked),
            fork_marks(&forked),
            "{at}: fork marks"
        );
        assert_eq!((s.state)(&reforked), (s.state)(&forked), "{at}: state");
        assert_eq!(
            history_marks(&reforked_parent),
            history_marks(&forked_parent),
            "{at}: parent history"
        );

        // The next round: the same operation on both sides, merged.
        (s.child_edit)(&mut forked);
        (s.child_edit)(&mut reforked);
        (s.parent_edit)(&mut forked_parent);
        (s.parent_edit)(&mut reforked_parent);
        assert_eq!(
            reforked.pending_ops(),
            forked.pending_ops(),
            "{at}: next ops"
        );
        assert_eq!(
            (s.state)(&reforked.pristine()),
            (s.state)(&forked.pristine()),
            "{at}: pristine"
        );
        let forked_stats = forked_parent.merge(&forked).unwrap();
        let reforked_stats = reforked_parent.merge(&reforked).unwrap();
        assert_eq!(reforked_stats, forked_stats, "{at}: next merge stats");
        assert_eq!(
            (s.state)(&reforked_parent),
            (s.state)(&forked_parent),
            "{at}: next merge state"
        );
        assert_eq!(
            history_marks(&reforked_parent),
            history_marks(&forked_parent),
            "{at}: next merge history"
        );
    }
}

#[test]
fn every_leaf_reforks_like_a_fresh_fork() {
    check(&Subject {
        name: "MList",
        make: || MList::from_vec(vec![1u32, 2, 3]),
        state: encode,
        child_edit: |l| l.insert(0, 7),
        parent_edit: |l| l.push(9),
    });
    check(&Subject {
        name: "MText",
        make: || {
            let mut t = MText::new();
            t.push_str("hello");
            t
        },
        state: encode,
        child_edit: |t| t.insert_str(0, "a"),
        parent_edit: |t| t.push_str("!"),
    });
    check(&Subject {
        name: "MQueue",
        make: || MQueue::from_vec(vec![1u32, 2, 3, 4]),
        state: encode,
        child_edit: |q| {
            q.pop_front();
        },
        parent_edit: |q| q.push_back(5),
    });
    check(&Subject {
        name: "MMap",
        make: MMap::<u32, u32>::new,
        state: encode,
        child_edit: |m| {
            m.insert(1, 10);
        },
        parent_edit: |m| {
            m.insert(2, 20);
        },
    });
    check(&Subject {
        name: "MSet",
        make: MSet::<u32>::new,
        state: encode,
        child_edit: |s| {
            s.insert(1);
        },
        parent_edit: |s| {
            s.insert(2);
        },
    });
    check(&Subject {
        name: "MCounter",
        make: || MCounter::new(0),
        state: encode,
        child_edit: |c| c.add(2),
        parent_edit: MCounter::inc,
    });
    check(&Subject {
        name: "MCounterMap",
        make: MCounterMap::<u32>::new,
        state: encode,
        child_edit: |m| m.inc(1),
        parent_edit: |m| m.add(2, 3),
    });
    check(&Subject {
        name: "MRegister",
        make: || MRegister::new(0u32),
        state: encode,
        child_edit: |r| r.set(1),
        parent_edit: |r| r.set(2),
    });
    check(&Subject {
        name: "MTree",
        make: || MTree::new(0u32),
        state: encode,
        child_edit: |t| t.push_child(&[], Node::leaf(1)),
        parent_edit: |t| t.push_child(&[], Node::leaf(2)),
    });
}

#[test]
fn a_tuple_and_a_vec_refork_like_fresh_forks() {
    check(&Subject {
        name: "tuple",
        make: || {
            (
                MList::from_vec(vec![1u32]),
                MCounter::new(0),
                MRegister::new(false),
            )
        },
        state: encode,
        child_edit: |d| d.0.push(2),
        parent_edit: |d| d.1.inc(),
    });
    check(&Subject {
        name: "Vec",
        make: || (0..4).map(MCounter::new).collect(),
        state: encode,
        child_edit: |v: &mut Vec<MCounter>| v[1].add(5),
        parent_edit: |v| {
            v[1].inc();
            v[3].dec();
        },
    });
}

#[test]
fn a_vec_whose_length_drifted_reforks_whole() {
    let parent: Vec<MCounter> = (0..3).map(MCounter::new).collect();
    let mut child = parent.fork();
    child[0].inc();
    child.push(MCounter::new(9));
    child.refork(&parent);
    let fresh = parent.fork();
    assert_eq!(child.len(), 3);
    assert_eq!(encode(&child), encode(&fresh));
    assert_eq!(fork_marks(&child), fork_marks(&fresh));
    assert_eq!(child.pending_ops(), 0);
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

fn composite_state(d: &Composite) -> Vec<u8> {
    let mut out = encode(&d.queues);
    out.extend(encode(&d.total));
    out.extend(encode(&d.text));
    out.extend(encode(&d.done));
    out
}

#[test]
fn a_mergeable_struct_reforks_like_a_fresh_fork() {
    check(&Subject {
        name: "mergeable_struct",
        make: || Composite {
            queues: (0..3)
                .map(|h| MQueue::from_vec(vec![h, h + 10, h + 20]))
                .collect(),
            total: MCounter::new(0),
            text: MText::new(),
            done: MRegister::new(false),
        },
        state: composite_state,
        child_edit: |d| {
            let hop = d.queues[0].pop_front().unwrap_or_default();
            d.total.inc();
            d.queues[2].push_back(hop);
        },
        parent_edit: |d| {
            d.text.push_str("round ");
            d.done.set(true);
        },
    });
}
