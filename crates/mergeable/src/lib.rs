//! Mergeable data structures for **Spawn & Merge**.
//!
//! The paper promises *"a set of commonly used mergeable data structures as
//! a library, e.g. mergeable strings, lists and trees"*, plus *"an interface
//! to implement new mergeable data structures"* (§II-C). This crate is that
//! library:
//!
//! | Structure | OT algebra | Conflict semantics |
//! |---|---|---|
//! | [`MList`] | list insert/delete/set | index shifting; duplicate deletes collapse |
//! | [`MText`] | text insert/range-delete | range splitting; intention preserving |
//! | [`MQueue`] | list ops on a FIFO | concurrent pushes both survive; an element pops once |
//! | [`MMap`] | key put/remove | per-key last-merged-wins |
//! | [`MSet`] | element add/remove | per-element last-merged-wins |
//! | [`MCounter`] | signed add | fully commutative, nothing ever lost |
//! | [`MCounterMap`] | per-key signed add | commutative per key; aggregation-safe |
//! | [`MRegister`] | overwrite | last-merged-wins |
//! | [`MTree`] | ordered-tree insert/delete/set | sibling shifting; deleted subtrees absorb ops |
//!
//! What the runtime sees is the [`Mergeable`] trait. Every structure
//! implements it; composite program states are built with
//! [`mergeable_struct!`], with tuples, or with `Vec<M>` — all of which fork
//! and merge field-wise / element-wise. The *interface* for a new
//! structure is [`Leaf`] (below).
//!
//! # Fork/merge contract
//!
//! `child = parent.fork()` gives the child an isolated copy (lazily via
//! copy-on-write). Both sides mutate freely — every mutation is recorded as
//! an operation. `parent.merge(&child)` rebases the child's operations over
//! whatever the parent committed since the fork (its own edits and
//! previously merged siblings) using operational transformation, so a merge
//! **never aborts**. The merge order chosen by the caller fully determines
//! the result — that is what makes Spawn & Merge deterministic.
//!
//! ```
//! use sm_mergeable::{MList, Mergeable};
//!
//! // Listing 1 of the paper.
//! let mut list = MList::from_iter([1, 2, 3]);
//! let mut child = list.fork();
//! child.push(5);             // child task: l.Append(5)
//! list.push(4);              // parent task: list.Append(4)
//! list.merge(&child).unwrap();
//! assert_eq!(list.to_vec(), vec![1, 2, 3, 4, 5]);
//! ```
//!
//! # Implementing a new structure
//!
//! A structure is an OT algebra ([`sm_ot::Operation`]: how an operation
//! applies and how two concurrent ones transform) behind a [`Versioned`]
//! log of it. The whole obligation is [`Leaf`] — say where that log is —
//! and the structure is [`Mergeable`]: it forks, merges, rolls back, has
//! its history collected, and composes into tuples, `Vec`s and
//! [`mergeable_struct!`] like the bundled nine, which get the trait the
//! same way.
//!
//! ```
//! use sm_mergeable::{Leaf, Mergeable, Versioned};
//! use sm_ot::counter::CounterOp;
//!
//! /// A vote tally: additions commute, so no vote is ever lost.
//! #[derive(Clone)]
//! struct Tally(Versioned<CounterOp>);
//!
//! impl Tally {
//!     fn count(&mut self, n: i64) {
//!         self.0.record_validated(CounterOp::add(n));
//!     }
//! }
//!
//! impl Leaf for Tally {
//!     type Op = CounterOp;
//!
//!     fn versioned(&self) -> &Versioned<CounterOp> {
//!         &self.0
//!     }
//!
//!     fn versioned_mut(&mut self) -> &mut Versioned<CounterOp> {
//!         &mut self.0
//!     }
//!
//!     fn wrap(inner: Versioned<CounterOp>) -> Self {
//!         Tally(inner)
//!     }
//! }
//!
//! let mut votes = (Tally(Versioned::new(0)), vec![Tally(Versioned::new(10))]);
//! let mut child = votes.fork();
//! child.0.count(2);
//! child.1[0].count(-1);
//! votes.0.count(5);
//! votes.merge(&child).unwrap();
//! assert_eq!(*votes.0 .0.state(), 7);
//! assert_eq!(*votes.1[0].0.state(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Invoke `$impl_tuple!(A: 0, …)` once per supported tuple arity: the one
/// list behind the tuples' `Mergeable` and `Persist` impls.
macro_rules! for_each_tuple_arity {
    ($impl_tuple:ident) => {
        $impl_tuple!(A: 0);
        $impl_tuple!(A: 0, B: 1);
        $impl_tuple!(A: 0, B: 1, C: 2);
        $impl_tuple!(A: 0, B: 1, C: 2, D: 3);
        $impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
        $impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
        $impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
        $impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
    };
}

mod cmap;
mod counter;
mod list;
mod map;
pub mod persist;
mod queue;
mod register;
mod set;
mod text;
mod tree;
mod versioned;

pub use cmap::MCounterMap;
pub use counter::MCounter;
pub use list::MList;
pub use map::MMap;
pub use persist::{Persist, PreparedReplayError, ReplayError};
pub use queue::MQueue;
pub use register::MRegister;
pub use set::MSet;
pub use text::MText;
pub use tree::MTree;
pub use versioned::{MergeError, MergeStats, Versioned};

/// A data structure that can be forked for a child task and merged back.
///
/// This is what the runtime asks of a program state. A new structure
/// gets it by implementing [`Leaf`] — the paper's "interface to implement
/// new mergeable data structures" — and composites get it field-wise.
/// Implementations must uphold:
///
/// 1. **Isolation** — after `fork`, mutations on either copy are invisible
///    to the other until a merge.
/// 2. **No aborts** — `merge` succeeds for any child actually forked from
///    `self` (errors signal structural misuse, not conflicts).
/// 3. **Determinism** — the result of a series of merges depends only on
///    the contents of the copies and the merge order, never on timing.
pub trait Mergeable: Clone + Send + 'static {
    /// Create a child copy: identical observable state, empty local
    /// operation record, fork point remembered.
    #[must_use]
    fn fork(&self) -> Self;

    /// Turn `self` into `parent.fork()` in place: what a child continues
    /// on after `parent` merged it (`Sync`). The default builds the fork
    /// and is always correct; the bundled structures keep whatever `self`
    /// already shares with `parent`, so a field nobody wrote costs nothing.
    fn refork(&mut self, parent: &Self) {
        *self = parent.fork();
    }

    /// The copy a fork handed `self`: its value as of the fork (or the
    /// last [`Mergeable::refork`]), before any local change, with the same
    /// fork point — what a `Clone`d sibling starts from (§II-E). Built on
    /// demand; nothing is copied until it is asked for.
    #[must_use]
    fn pristine(&self) -> Self;

    /// Merge a forked child's changes back into `self` via operational
    /// transformation. A wrapper around [`Mergeable::merge_into`], the one
    /// merge path: implement that one.
    fn merge(&mut self, child: &Self) -> Result<MergeStats, MergeError> {
        let mut stats = MergeStats::default();
        self.merge_into(child, &mut stats)?;
        Ok(stats)
    }

    /// [`Mergeable::merge`], adding the merge's statistics to `stats`
    /// instead of returning them, so a composite walks its fields into
    /// one accumulator and a field the child never wrote adds its
    /// committed-operation count in place. On an error, `stats` holds
    /// whatever the fields merged before it added.
    fn merge_into(&mut self, child: &Self, stats: &mut MergeStats) -> Result<(), MergeError>;

    /// Operations recorded locally since creation or fork (diagnostics).
    fn pending_ops(&self) -> usize;

    /// Append, one entry per contained [`Versioned`] log (in a fixed
    /// structure-traversal order), the current absolute history length.
    /// Used by the runtime's fork-watermark GC.
    fn history_marks(&self, out: &mut Vec<usize>) {
        let _ = out;
    }

    /// Append, one entry per contained [`Versioned`] log (same traversal
    /// order as [`Mergeable::history_marks`]), the absolute fork base this
    /// copy was forked at. For a root structure this is 0 per log.
    fn fork_marks(&self, out: &mut Vec<usize>) {
        let _ = out;
    }

    /// Truncate each contained log's prefix below the matching entry of
    /// `watermark` (indexed via `cursor`, same traversal order as
    /// [`Mergeable::history_marks`]). Returns the total number of
    /// operations dropped. Callers guarantee every live fork of `self` has
    /// fork bases ≥ the watermark, element-wise.
    fn truncate_history(&mut self, watermark: &[usize], cursor: &mut usize) -> usize {
        let _ = (watermark, cursor);
        0
    }

    /// Undo everything recorded on `self` since `fork` was taken from it
    /// (merges included): state, retained history and the fusion barrier
    /// of every contained log go back to what they were when
    /// `self.fork()` returned `fork`, so `self` is indistinguishable from
    /// a copy that never made those changes. `fork` must be an unmodified
    /// fork of `self` whose fork point is still retained; forks taken
    /// after it are invalidated. This is what makes a failed in-place
    /// merge transactional without cloning `self` first.
    fn rollback_to(&mut self, fork: &Self);
}

/// Unit state: trivially mergeable (tasks that share no data).
impl Mergeable for () {
    fn fork(&self) -> Self {}

    fn pristine(&self) -> Self {}

    fn merge_into(&mut self, _child: &Self, _stats: &mut MergeStats) -> Result<(), MergeError> {
        Ok(())
    }

    fn pending_ops(&self) -> usize {
        0
    }

    fn rollback_to(&mut self, _fork: &Self) {}
}

/// Element-wise merge for homogeneous collections of mergeables.
///
/// The vector's *shape* is fixed at fork time (children cannot add or
/// remove elements — use [`MList`] for a mergeable sequence); a length
/// mismatch on merge is reported as [`MergeError::ShapeMismatch`].
impl<M: Mergeable> Mergeable for Vec<M> {
    fn fork(&self) -> Self {
        self.iter().map(Mergeable::fork).collect()
    }

    fn refork(&mut self, parent: &Self) {
        // A drifted shape has no element-wise counterpart: fork whole.
        if self.len() != parent.len() {
            *self = parent.fork();
            return;
        }
        for (m, p) in self.iter_mut().zip(parent) {
            m.refork(p);
        }
    }

    fn pristine(&self) -> Self {
        self.iter().map(Mergeable::pristine).collect()
    }

    fn merge_into(&mut self, child: &Self, stats: &mut MergeStats) -> Result<(), MergeError> {
        if self.len() != child.len() {
            return Err(MergeError::ShapeMismatch {
                detail: format!("Vec length {} vs child {}", self.len(), child.len()),
            });
        }
        for (p, c) in self.iter_mut().zip(child) {
            p.merge_into(c, stats)?;
        }
        Ok(())
    }

    fn pending_ops(&self) -> usize {
        self.iter().map(Mergeable::pending_ops).sum()
    }

    fn history_marks(&self, out: &mut Vec<usize>) {
        for m in self {
            m.history_marks(out);
        }
    }

    fn fork_marks(&self, out: &mut Vec<usize>) {
        for m in self {
            m.fork_marks(out);
        }
    }

    fn truncate_history(&mut self, watermark: &[usize], cursor: &mut usize) -> usize {
        self.iter_mut()
            .map(|m| m.truncate_history(watermark, cursor))
            .sum()
    }

    fn rollback_to(&mut self, fork: &Self) {
        // A shape drift since the fork cannot be undone element-wise.
        assert_eq!(self.len(), fork.len(), "rollback target length differs");
        for (m, f) in self.iter_mut().zip(fork) {
            m.rollback_to(f);
        }
    }
}

/// How a structure's one [`Versioned`] log is reached: the whole
/// obligation of a new mergeable structure (crate docs, *Implementing a
/// new structure*). Every `Leaf` is [`Mergeable`] through one blanket
/// impl: fork, refork, pristine, merge, history GC and rollback are
/// written once, over the log.
pub trait Leaf: Clone + Send + 'static {
    /// The OT algebra the structure records its mutations in.
    type Op: sm_ot::Operation;

    /// The structure's log.
    fn versioned(&self) -> &Versioned<Self::Op>;

    /// The structure's log, for recording.
    fn versioned_mut(&mut self) -> &mut Versioned<Self::Op>;

    /// The structure around an existing log: a fork is
    /// `wrap(self.versioned().fork())`, which shares the parent's state
    /// and never clones its log.
    fn wrap(inner: Versioned<Self::Op>) -> Self;

    /// The recorded local operations (diagnostics, tests, replication
    /// layers).
    fn log(&self) -> &[Self::Op] {
        self.versioned().log()
    }

    /// Apply and record an operation produced elsewhere (replication /
    /// distributed runtimes).
    fn apply_op(&mut self, op: Self::Op) -> Result<(), sm_ot::ApplyError> {
        self.versioned_mut().record(op)
    }
}

impl<L: Leaf> Mergeable for L {
    fn fork(&self) -> Self {
        L::wrap(self.versioned().fork())
    }

    fn refork(&mut self, parent: &Self) {
        self.versioned_mut().refork(parent.versioned());
    }

    fn pristine(&self) -> Self {
        L::wrap(self.versioned().pristine())
    }

    fn merge_into(&mut self, child: &Self, stats: &mut MergeStats) -> Result<(), MergeError> {
        self.versioned_mut().merge_into(child.versioned(), stats)
    }

    fn pending_ops(&self) -> usize {
        self.versioned().pending_ops()
    }

    fn history_marks(&self, out: &mut Vec<usize>) {
        out.push(self.versioned().history_len());
    }

    fn fork_marks(&self, out: &mut Vec<usize>) {
        out.push(self.versioned().fork_base());
    }

    fn truncate_history(&mut self, watermark: &[usize], cursor: &mut usize) -> usize {
        let w = watermark.get(*cursor).copied().unwrap_or(0);
        *cursor += 1;
        self.versioned_mut().truncate_prefix(w)
    }

    fn rollback_to(&mut self, fork: &Self) {
        self.versioned_mut().rollback_to(fork.versioned());
    }
}

macro_rules! impl_mergeable_tuple {
    ( $( $name:ident : $idx:tt ),+ ) => {
        impl<$( $name: Mergeable ),+> Mergeable for ( $( $name, )+ ) {
            fn fork(&self) -> Self {
                ( $( self.$idx.fork(), )+ )
            }

            fn pristine(&self) -> Self {
                ( $( self.$idx.pristine(), )+ )
            }

            mergeable_struct!(@fieldwise $( $idx ),+);
        }
    };
}

/// Define a named composite of mergeable fields and derive [`Mergeable`]
/// for it (field-wise fork and merge).
///
/// ```
/// use sm_mergeable::{mergeable_struct, MCounter, MList, Mergeable};
///
/// mergeable_struct! {
///     /// Shared state of an example application.
///     #[derive(Debug, Clone)]
///     pub struct AppData {
///         pub items: MList<u64>,
///         pub total: MCounter,
///     }
/// }
///
/// let mut data = AppData { items: MList::new(), total: MCounter::new(0) };
/// let mut child = data.fork();
/// child.items.push(7);
/// child.total.add(1);
/// data.merge(&child).unwrap();
/// assert_eq!(data.items.to_vec(), vec![7]);
/// assert_eq!(data.total.get(), 1);
/// ```
#[macro_export]
macro_rules! mergeable_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field : $fty, )+
        }

        impl $crate::Mergeable for $name {
            fn fork(&self) -> Self {
                Self { $( $field: $crate::Mergeable::fork(&self.$field), )+ }
            }

            fn pristine(&self) -> Self {
                Self { $( $field: $crate::Mergeable::pristine(&self.$field), )+ }
            }

            $crate::mergeable_struct!(@fieldwise $( $field ),+);
        }
    };
    // Every `Mergeable` method but `fork` and `pristine` (whose
    // constructors are the caller's), field by field: `$f` reaches a
    // field (a name, or a tuple index). The tuple impls expand this rule
    // too.
    (@fieldwise $( $f:tt ),+) => {
        fn refork(&mut self, parent: &Self) {
            $( $crate::Mergeable::refork(&mut self.$f, &parent.$f); )+
        }

        fn merge_into(
            &mut self,
            child: &Self,
            stats: &mut $crate::MergeStats,
        ) -> Result<(), $crate::MergeError> {
            $( $crate::Mergeable::merge_into(&mut self.$f, &child.$f, stats)?; )+
            Ok(())
        }

        fn pending_ops(&self) -> usize {
            0 $( + $crate::Mergeable::pending_ops(&self.$f) )+
        }

        fn history_marks(&self, out: &mut ::std::vec::Vec<usize>) {
            $( $crate::Mergeable::history_marks(&self.$f, out); )+
        }

        fn fork_marks(&self, out: &mut ::std::vec::Vec<usize>) {
            $( $crate::Mergeable::fork_marks(&self.$f, out); )+
        }

        fn truncate_history(&mut self, watermark: &[usize], cursor: &mut usize) -> usize {
            0 $( + $crate::Mergeable::truncate_history(&mut self.$f, watermark, cursor) )+
        }

        fn rollback_to(&mut self, fork: &Self) {
            $( $crate::Mergeable::rollback_to(&mut self.$f, &fork.$f); )+
        }
    };
}

for_each_tuple_arity!(impl_mergeable_tuple);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_mergeable() {
        let mut u = ();
        let _fork: () = u.fork();
        assert_eq!(u.merge(&()).unwrap(), MergeStats::default());
        assert_eq!(u.pending_ops(), 0);
    }

    #[test]
    fn tuple_merges_fieldwise() {
        let mut data = (MList::from_iter([1u32]), MCounter::new(0));
        let mut child = data.fork();
        child.0.push(2);
        child.1.add(5);
        data.0.push(3);
        let stats = data.merge(&child).unwrap();
        assert_eq!(data.0.to_vec(), vec![1, 3, 2]);
        assert_eq!(data.1.get(), 5);
        assert_eq!(stats.child_ops, 2);
    }

    #[test]
    fn vec_of_mergeables_merges_elementwise() {
        let mut data: Vec<MCounter> = vec![MCounter::new(0), MCounter::new(10)];
        let mut c1 = data.fork();
        let mut c2 = data.fork();
        c1[0].add(1);
        c2[0].add(2);
        c2[1].add(-5);
        data.merge(&c1).unwrap();
        data.merge(&c2).unwrap();
        assert_eq!(data[0].get(), 3);
        assert_eq!(data[1].get(), 5);
    }

    #[test]
    fn vec_shape_mismatch_is_error() {
        let mut data: Vec<MCounter> = vec![MCounter::new(0)];
        let mut child = data.fork();
        child.push(MCounter::new(0));
        assert!(matches!(
            data.merge(&child),
            Err(MergeError::ShapeMismatch { .. })
        ));
    }

    mergeable_struct! {
        #[derive(Debug, Clone)]
        struct Composite {
            list: MList<u8>,
            text: MText,
            count: MCounter,
        }
    }

    #[test]
    fn mergeable_struct_macro_works() {
        let mut data = Composite {
            list: MList::new(),
            text: MText::from("doc: "),
            count: MCounter::new(0),
        };
        let mut child = data.fork();
        child.list.push(1);
        child.text.push_str("child");
        child.count.add(1);
        data.text.push_str("parent ");
        data.count.add(10);

        let stats = data.merge(&child).unwrap();
        assert_eq!(data.list.to_vec(), vec![1]);
        assert_eq!(data.text, "doc: parent child");
        assert_eq!(data.count.get(), 11);
        assert_eq!(stats.child_ops, 3);
        assert!(data.pending_ops() >= 2);
    }

    #[test]
    fn nested_composites_merge() {
        mergeable_struct! {
            #[derive(Debug, Clone)]
            struct Outer {
                inner: Composite,
                reg: MRegister<u8>,
            }
        }
        let mut outer = Outer {
            inner: Composite {
                list: MList::new(),
                text: MText::new(),
                count: MCounter::new(0),
            },
            reg: MRegister::new(0),
        };
        let mut child = outer.fork();
        child.inner.count.add(2);
        child.reg.set(9);
        outer.merge(&child).unwrap();
        assert_eq!(outer.inner.count.get(), 2);
        assert_eq!(outer.reg.get(), &9);
    }
}
