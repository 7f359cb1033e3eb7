//! The paper's "interface to implement new mergeable data structures", as
//! a user of the crate meets it: a structure defined out here with nothing
//! but `impl Leaf` must behave exactly like the bundled `MCounter`, which
//! records the same algebra — alone, inside a tuple and inside a `Vec`:
//! same states, same `MergeStats`, same history and fork marks, same
//! history GC, same rollback.

use sm_mergeable::{
    Leaf, MCounter, MCounterMap, MList, MMap, MQueue, MRegister, MSet, MText, MTree, MergeStats,
    Mergeable, Versioned,
};
use sm_ot::counter::CounterOp;

/// The structure under test: a log, a way to record into it, `impl Leaf`.
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

/// What the script needs of a counter; the bundled one is driven through
/// its own methods.
trait Counter: Mergeable {
    fn starting_at(value: i64) -> Self;
    fn add(&mut self, delta: i64);
    fn get(&self) -> i64;
}

impl Counter for Tally {
    fn starting_at(value: i64) -> Self {
        Tally(Versioned::new(value))
    }

    fn add(&mut self, delta: i64) {
        self.0.record_validated(CounterOp::add(delta));
    }

    fn get(&self) -> i64 {
        *self.0.state()
    }
}

impl Counter for MCounter {
    fn starting_at(value: i64) -> Self {
        MCounter::new(value)
    }

    fn add(&mut self, delta: i64) {
        MCounter::add(self, delta);
    }

    fn get(&self) -> i64 {
        MCounter::get(self)
    }
}

/// A state made of counters, addressed by slot (modulo their number).
struct Kit<D> {
    genesis: D,
    add: fn(&mut D, usize, i64),
    values: fn(&D) -> Vec<i64>,
}

fn alone<C: Counter>() -> Kit<C> {
    Kit {
        genesis: C::starting_at(100),
        add: |d, _, delta| d.add(delta),
        values: |d| vec![d.get()],
    }
}

fn in_a_tuple<C: Counter>() -> Kit<(C, MText, C)> {
    Kit {
        genesis: (
            C::starting_at(100),
            MText::from("between"),
            C::starting_at(200),
        ),
        add: |d, slot, delta| [&mut d.0, &mut d.2][slot % 2].add(delta),
        values: |d| vec![d.0.get(), d.2.get()],
    }
}

fn in_a_vec<C: Counter>() -> Kit<Vec<C>> {
    Kit {
        genesis: (1..=3).map(|n| C::starting_at(100 * n)).collect(),
        add: |d, slot, delta| {
            let slot = slot % d.len();
            d[slot].add(delta);
        },
        values: |d| d.iter().map(C::get).collect(),
    }
}

fn history_marks<D: Mergeable>(d: &D) -> Vec<usize> {
    let mut marks = Vec::new();
    d.history_marks(&mut marks);
    marks
}

fn fork_marks<D: Mergeable>(d: &D) -> Vec<usize> {
    let mut marks = Vec::new();
    d.fork_marks(&mut marks);
    marks
}

/// Everything the script observed, in order.
#[derive(Debug, Default, PartialEq)]
struct Witness {
    /// Values, history marks and retained operations after each step.
    heads: Vec<(Vec<i64>, Vec<usize>, usize)>,
    /// Fork marks of each fork, in creation order.
    forks: Vec<Vec<usize>>,
    merges: Vec<MergeStats>,
    /// Operations the history GC dropped.
    dropped: usize,
}

impl Witness {
    fn head<D: Mergeable>(&mut self, kit: &Kit<D>, head: &D) {
        self.heads
            .push(((kit.values)(head), history_marks(head), head.pending_ops()));
    }

    /// Fork `head`; the fork starts where the head's history ends.
    fn fork<D: Mergeable>(&mut self, head: &D) -> D {
        let fork = head.fork();
        assert_eq!(fork_marks(&fork), history_marks(head));
        assert_eq!(fork.pending_ops(), 0);
        self.forks.push(fork_marks(&fork));
        fork
    }
}

/// Fork, edit both sides, merge; collect history at a sibling's fork
/// marks and merge the siblings; then — when `undone` — merge one more
/// child and roll it back; then a last merge, where anything the undone
/// merge left behind would show.
fn witness<D: Mergeable>(kit: Kit<D>, undone: bool) -> Witness {
    let mut w = Witness::default();
    let add = kit.add;
    let mut head = kit.genesis.clone();
    add(&mut head, 0, 1);
    w.head(&kit, &head);

    let mut a = w.fork(&head);
    let mut b = w.fork(&head);
    add(&mut a, 0, 2);
    add(&mut a, 1, 3);
    add(&mut b, 1, 5);
    add(&mut head, 0, 10);
    add(&mut head, 2, 20);
    w.merges.push(head.merge(&a).unwrap());
    w.head(&kit, &head);

    // A younger sibling: its fork marks are past `b`'s in every log that
    // moved, and `b`'s are the watermark of the live forks.
    let mut c = w.fork(&head);
    add(&mut c, 2, 7);
    let watermark = fork_marks(&b);
    assert!(watermark.iter().zip(fork_marks(&c)).all(|(b, c)| *b <= c));
    let mut cursor = 0;
    w.dropped = head.truncate_history(&watermark, &mut cursor);
    assert_eq!(cursor, watermark.len(), "one watermark entry per log");
    w.head(&kit, &head);
    w.merges.push(head.merge(&b).unwrap());
    w.merges.push(head.merge(&c).unwrap());
    w.head(&kit, &head);

    let newest = w.fork(&head);
    if undone {
        let mut gone = head.fork();
        add(&mut gone, 0, -50);
        add(&mut gone, 1, -60);
        head.merge(&gone).unwrap();
        head.rollback_to(&newest);
    }
    w.head(&kit, &head);

    let mut last = newest;
    add(&mut last, 0, 4);
    add(&mut last, 1, 6);
    w.merges.push(head.merge(&last).unwrap());
    w.head(&kit, &head);
    w
}

/// `kit` with the outside leaf against `kit` with the bundled one, and
/// each against its twin that never made the rolled-back merge.
fn check<T: Mergeable, M: Mergeable>(name: &str, tally: fn() -> Kit<T>, bundled: fn() -> Kit<M>) {
    let want = witness(bundled(), false);
    assert_eq!(witness(tally(), false), want, "{name}");
    assert_eq!(witness(tally(), true), want, "{name}: rolled back");
    assert_eq!(
        witness(bundled(), true),
        want,
        "{name}: bundled, rolled back"
    );
    assert!(
        want.dropped > 0,
        "{name}: the pre-fork history was collected"
    );
}

#[test]
fn an_outside_leaf_matches_the_bundled_counter_op_for_op() {
    check("alone", alone::<Tally>, alone::<MCounter>);
    check("in a tuple", in_a_tuple::<Tally>, in_a_tuple::<MCounter>);
    check("in a Vec", in_a_vec::<Tally>, in_a_vec::<MCounter>);
}

#[test]
fn marks_follow_the_traversal_order() {
    // One entry per log, in field order: an edit of the last counter
    // moves the last mark only (the text between them has a log too).
    let kit = in_a_tuple::<Tally>();
    let mut head = kit.genesis;
    (kit.add)(&mut head, 1, 1);
    assert_eq!(history_marks(&head), [0, 0, 1]);
    let fork = head.fork();
    (kit.add)(&mut head, 0, 1);
    assert_eq!(history_marks(&head), [1, 0, 1]);
    assert_eq!(fork_marks(&fork), [0, 0, 1]);
    assert_eq!(fork_marks(&head), [0, 0, 0], "a root forked from nothing");
}

#[test]
fn untouched_merge_leaves_every_leaf_sharing_its_state() {
    // The runtime hands each syncing child a fork and merges it back;
    // a leaf the child never wrote must come out of that still sharing
    // its state with the fork (no copy-on-write copy for no write). A
    // scalar is kept by value, so the fork holds a copy, not a share.
    macro_rules! check {
        ($leaf:expr, $shared:expr) => {{
            let mut parent = $leaf;
            let child = parent.fork();
            parent.merge(&child).unwrap();
            assert_eq!(
                parent.versioned().shares_state_with(child.versioned()),
                $shared
            );
            assert_eq!(parent.versioned().state(), child.versioned().state());
        }};
    }
    check!(MList::from_iter([1u32, 2]), true);
    check!(MText::from("text"), true);
    check!(MQueue::from_vec(vec![1u32, 2]), true);
    check!(MMap::from_entries([(1u32, 2u32)]), true);
    check!(MSet::from_items([1u32]), true);
    check!(MCounter::new(3), false);
    check!(MCounterMap::from_entries([(1u32, 2)]), true);
    check!(MRegister::new(4u32), false);
    check!(MTree::new(5u32), true);
    check!(Tally::starting_at(6), false);

    // Field-wise through a composite, around one edited field. Nothing
    // was committed on the parent side, but the edited field is a
    // by-value scalar: it applies the child's run to its own copy.
    let mut data = (
        vec![MQueue::from_vec(vec![1u32]), MQueue::new()],
        vec![Tally::starting_at(0), Tally::starting_at(0)],
        MRegister::new(false),
    );
    let mut child = data.fork();
    child.1[0].add(1);
    data.merge(&child).unwrap();
    assert!(data
        .0
        .iter()
        .zip(&child.0)
        .all(|(p, c)| p.versioned().shares_state_with(c.versioned())));
    assert_eq!(*data.1[0].versioned().state(), 1);
    assert_eq!(
        child.1[0].versioned().state(),
        data.1[0].versioned().state()
    );
    assert_eq!(
        child.1[1].versioned().state(),
        data.1[1].versioned().state()
    );
    assert_eq!(child.2.versioned().state(), data.2.versioned().state());
}
