//! The merge memo ≡ the uncached kernel, exhaustively on a small scope.
//!
//! Every batch of up to three siblings, each making up to two
//! single-element inserts or deletes on a four-element base, is merged
//! child by child with `merge` — whose later siblings continue from the
//! memo the earlier ones left — and separately with the reference fold:
//! [`rebase_delta`] over the live committed slice, the compacted grid
//! where it declines, applied and appended op by op. State, log and each
//! child's `child_ops` / `applied_ops` / `committed_ops` must be equal,
//! for `MList` and `MText`, under an idle and a busy parent, with
//! children that made no edit, a `ListOp::Set` child and a dismissed
//! child at each position. Then the writes between two sibling merges
//! that must drop the memo, or must not matter to it.
//!
//! The enumeration runs in release (CI does): debug builds also check
//! every memo rebase against the uncached one, which makes it slow.

use sm_mergeable::{Leaf, MList, MText, MergeStats, Mergeable};
use sm_ot::compose::compact;
use sm_ot::delta::{rebase_delta, DeltaOp};
use sm_ot::seq;

/// One single-element edit at a position of the document it meets.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Insert(usize),
    Delete(usize),
}

/// What the enumeration needs of a sequence structure.
trait Doc: Leaf + Mergeable {
    fn base() -> Self;
    /// Insert one element, told apart by `tag`.
    fn insert_at(&mut self, at: usize, tag: u8);
    fn delete_at(&mut self, at: usize);
    fn view(&self) -> String;
    /// A span-inexpressible edit, where the structure has one.
    fn overwrite(&mut self);

    fn play(&mut self, script: &[Edit], child: usize) {
        for (k, edit) in script.iter().enumerate() {
            match *edit {
                Edit::Insert(at) => self.insert_at(at, (10 * child + k) as u8),
                Edit::Delete(at) => self.delete_at(at),
            }
        }
    }
}

impl Doc for MList<u8> {
    fn base() -> Self {
        MList::from_iter([200, 201, 202, 203])
    }
    fn insert_at(&mut self, at: usize, tag: u8) {
        self.insert(at, tag);
    }
    fn delete_at(&mut self, at: usize) {
        self.remove(at);
    }
    fn view(&self) -> String {
        format!("{:?}", self.to_vec())
    }
    fn overwrite(&mut self) {
        self.set(1, 77);
        self.insert(2, 78);
    }
}

impl Doc for MText {
    fn base() -> Self {
        MText::from("wxyz")
    }
    fn insert_at(&mut self, at: usize, tag: u8) {
        self.insert_str(at, char::from(b'A' + tag % 58).to_string());
    }
    fn delete_at(&mut self, at: usize) {
        self.delete_range(at, 1);
    }
    fn view(&self) -> String {
        self.to_string()
    }
    fn overwrite(&mut self) {
        unreachable!("text has no span-inexpressible edit")
    }
}

/// Every script of at most two edits on a document of `len` elements.
fn scripts(len: usize) -> Vec<Vec<Edit>> {
    fn edits(len: usize) -> impl Iterator<Item = (Edit, usize)> {
        let inserts = (0..=len).map(move |at| (Edit::Insert(at), len + 1));
        inserts.chain((0..len).map(move |at| (Edit::Delete(at), len - 1)))
    }
    let mut all = vec![vec![]];
    for (first, len) in edits(len) {
        all.push(vec![first]);
        all.extend(edits(len).map(|(second, _)| vec![first, second]));
    }
    all
}

/// The counts the determinism auditor hashes.
fn audited(stats: &MergeStats) -> (usize, usize, usize) {
    (stats.child_ops, stats.applied_ops, stats.committed_ops)
}

/// Merge `child` into `parent` by the reference fold (module docs) and
/// return the audited counts the merge would report.
fn reference_merge<D: Doc>(parent: &mut D, child: &D) -> (usize, usize, usize)
where
    D::Op: DeltaOp + PartialEq,
{
    let (p, c) = (parent.versioned(), child.versioned());
    let committed = &p.log()[c.fork_base() - p.log_start()..];
    let counts = (c.log().len(), committed.len());
    if c.log().is_empty() {
        return (0, 0, counts.1);
    }
    let delta = (!committed.is_empty())
        .then(|| rebase_delta(c.log(), committed))
        .flatten();
    let run = match delta {
        Some((run, _)) => run,
        None => seq::rebase(&compact(c.log()), &compact(committed)),
    };
    let applied = run.len();
    for op in run {
        parent.versioned_mut().record_validated(op);
    }
    (counts.0, applied, counts.1)
}

/// The two parents of one comparison: one merges with `merge`, the other
/// by the reference fold; every other write goes to both.
struct Twin<D> {
    memo: D,
    reference: D,
    hits: usize,
}

impl<D: Doc> Twin<D>
where
    D::Op: DeltaOp + PartialEq,
{
    fn new(parent: D) -> Self {
        // A clone starts without a memo; both share the fork bookkeeping.
        Twin {
            memo: parent.clone(),
            reference: parent,
            hits: 0,
        }
    }

    fn both(&mut self, write: impl Fn(&mut D)) {
        write(&mut self.memo);
        write(&mut self.reference);
    }

    fn merge(&mut self, child: &D, what: &dyn std::fmt::Debug) {
        let stats = self.memo.merge(child).unwrap();
        let want = reference_merge(&mut self.reference, child);
        assert_eq!(audited(&stats), want, "{what:?}: counts");
        self.hits += stats.memo_hits;
    }

    fn assert_equal(&self, what: &dyn std::fmt::Debug) {
        assert_eq!(self.memo.view(), self.reference.view(), "{what:?}: state");
        assert_eq!(self.memo.log(), self.reference.log(), "{what:?}: log");
    }
}

/// One child of a batch.
#[derive(Debug, Clone, Copy)]
enum Kid<'a> {
    Edits(&'a [Edit]),
    /// A span-inexpressible `ListOp::Set`, then an insert
    /// ([`Doc::overwrite`]).
    Set,
}

/// What the parent writes between the forks and the merges.
fn busy<D: Doc>(parent: &mut D) {
    parent.insert_at(1, 99);
    parent.delete_at(3);
}

/// Fork `kids` off the base, let the parent work if `is_busy`, and merge
/// every kid but `skip` both ways. Returns the memo hits.
fn check_batch<D: Doc>(kids: &[Kid], is_busy: bool, skip: Option<usize>) -> usize
where
    D::Op: DeltaOp + PartialEq,
{
    let mut parent = D::base();
    let children: Vec<D> = kids
        .iter()
        .enumerate()
        .map(|(i, kid)| {
            let mut child = parent.fork();
            match kid {
                Kid::Edits(script) => child.play(script, i),
                Kid::Set => child.overwrite(),
            }
            child
        })
        .collect();
    if is_busy {
        busy(&mut parent);
    }
    let mut twin = Twin::new(parent);
    let what = (kids, is_busy, skip);
    for (i, child) in children.iter().enumerate() {
        if skip != Some(i) {
            twin.merge(child, &what);
        }
    }
    twin.assert_equal(&what);
    twin.hits
}

/// Every batch of one to three siblings over both parents, and each
/// sibling position dismissed; with `sets`, a `Set` child at each
/// position too. Returns the memo hits over all of it.
fn enumerate<D: Doc>(sets: bool) -> usize
where
    D::Op: DeltaOp + PartialEq,
{
    let all = scripts(4);
    let mut hits = 0;
    for is_busy in [false, true] {
        for a in &all {
            hits += check_batch::<D>(&[Kid::Edits(a)], is_busy, None);
            for b in &all {
                hits += check_batch::<D>(&[Kid::Edits(a), Kid::Edits(b)], is_busy, None);
                for c in &all {
                    let kids = [Kid::Edits(a), Kid::Edits(b), Kid::Edits(c)];
                    hits += check_batch::<D>(&kids, is_busy, None);
                }
                // The dismissed child's edits never matter: one script.
                for at in 0..3 {
                    let mut kids = [Kid::Edits(a), Kid::Edits(b), Kid::Edits(b)];
                    kids.rotate_right(at);
                    kids[at] = Kid::Edits(&[Edit::Insert(0)]);
                    hits += check_batch::<D>(&kids, is_busy, Some(at));
                    if sets {
                        kids[at] = Kid::Set;
                        hits += check_batch::<D>(&kids, is_busy, None);
                    }
                }
            }
        }
    }
    hits
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "millions of merges; the debug oracle doubles each memo rebase"
)]
fn every_small_list_batch_merges_like_the_uncached_kernel() {
    assert!(
        enumerate::<MList<u8>>(true) > 0,
        "the memo was never reused"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "millions of merges; the debug oracle doubles each memo rebase"
)]
fn every_small_text_batch_merges_like_the_uncached_kernel() {
    assert!(enumerate::<MText>(false) > 0, "the memo was never reused");
}

/// A parent with one op of history below the fork, and three siblings
/// `a`, `b`, `c` forked from it, each inserting one element at the end —
/// behind the edits the parent then makes, so a later sibling's run
/// depends on everything committed before it.
fn forked() -> (MList<u8>, [MList<u8>; 3]) {
    let mut parent = MList::<u8>::base();
    parent.insert(0, 150);
    let kids = [0, 1, 2].map(|i| {
        let mut kid = parent.fork();
        kid.push(10 + i);
        kid
    });
    (parent, kids)
}

/// [`forked`], and the parent works.
fn siblings() -> (MList<u8>, [MList<u8>; 3]) {
    let (mut parent, kids) = forked();
    busy(&mut parent);
    (parent, kids)
}

/// A record that fuses into the log tail rewrites it in place and keeps
/// the history length: the memo the first sibling left must go.
#[test]
fn a_record_fusing_into_the_tail_drops_the_memo() {
    let (parent, [a, b, c]) = siblings();
    let mut twin = Twin::new(parent);
    twin.merge(&a, &"a");
    let len = twin.memo.versioned().history_len();
    // `a`'s run is an insert at the end; one more there fuses into it.
    twin.both(|p| {
        let end = p.len();
        p.insert(end, 55);
    });
    assert_eq!(twin.memo.versioned().history_len(), len, "the push fused");
    twin.merge(&b, &"b");
    twin.merge(&c, &"c");
    twin.assert_equal(&"fused record");
    assert_eq!(twin.hits, 1, "b rebuilt the memo, c reused it");
}

/// A rollback shrinks the log, and appending records grow it back to the
/// very length the memo was keyed on, with other ops in it.
#[test]
fn a_rollback_then_records_to_the_same_length_drops_the_memo() {
    let (mut parent, [a, b, c]) = forked();
    // Taken last: the rollback keeps the forks taken before it valid.
    let target = parent.fork();
    busy(&mut parent);
    let mut twin = Twin::new(parent);
    twin.merge(&a, &"a");
    let len = twin.memo.versioned().history_len();
    twin.both(|p| p.rollback_to(&target));
    // Inserts that never touch: one log entry each.
    let mut at = 0;
    while twin.memo.versioned().history_len() < len {
        twin.both(|p| p.insert(at, 60));
        at += 2;
    }
    assert_eq!(twin.memo.versioned().history_len(), len);
    twin.merge(&b, &"b");
    twin.merge(&c, &"c");
    twin.assert_equal(&"rollback");
    assert_eq!(twin.hits, 1, "b rebuilt the memo, c reused it");
}

/// A child with another fork base leaves a memo for its own, shorter
/// slice — at the very history length the next sibling of the first
/// batch meets — and that sibling rebuilds it.
#[test]
fn a_child_with_another_fork_base_rebuilds_the_memo() {
    let (parent, [a, b, c]) = siblings();
    let mut twin = Twin::new(parent);
    twin.merge(&a, &"a");
    // Forked after `a` merged (on both sides, for the fuse barrier), and
    // merged over one more parent op, on the delta path.
    let mut late = twin.memo.fork();
    let _ = twin.reference.fork();
    late.insert(0, 44);
    twin.both(|p| p.insert(1, 45));
    twin.merge(&late, &"late");
    twin.merge(&b, &"b");
    twin.merge(&c, &"c");
    twin.assert_equal(&"fork bases");
    assert_eq!(twin.hits, 1, "only c continued from b's memo");
}

/// Truncating the history prefix below the siblings' fork base moves
/// neither the fork base nor the history length: the memo stays good.
#[test]
fn a_truncated_prefix_keeps_the_memo_good() {
    let (parent, [a, b, c]) = siblings();
    let fork_base = a.versioned().fork_base();
    let mut twin = Twin::new(parent);
    twin.merge(&a, &"a");
    twin.both(|p| {
        p.versioned_mut().truncate_prefix(fork_base);
    });
    twin.merge(&b, &"b");
    twin.merge(&c, &"c");
    twin.assert_equal(&"truncation");
    assert_eq!(twin.hits, 2, "b and c continued from the memo");
}
