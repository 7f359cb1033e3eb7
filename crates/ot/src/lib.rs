//! Operational transformation (OT) engine for Spawn & Merge.
//!
//! This crate is the merge substrate of the Spawn & Merge framework
//! (Boelmann, Schwittmann, Weis — *Deterministic Synchronization of
//! Multi-Threaded Programs with Operational Transformation*, IPDPSW 2014).
//! An OT system consists of two layers (§II-B of the paper, after Ellis &
//! Gibbs 1989):
//!
//! 1. **Transformation functions** — per data structure, per operation pair:
//!    rewrite a concurrent operation so that it can be applied *after*
//!    another operation while preserving its intention. These live in the
//!    structure modules: [`list`], [`text`], [`map`], [`set`], [`counter`],
//!    [`register`], [`tree`].
//! 2. **Transformation control algorithm** — decides which transformation
//!    function is applied to which pair of concurrent operations. Because
//!    Spawn & Merge merges are *centralized at the parent task*, the control
//!    algorithm is a rebase over a single linear history rather than full
//!    distributed OT; it lives in [`seq`].
//!
//! # The model
//!
//! Operations implement [`Operation`]: they can be applied to a state and
//! transformed against a concurrent operation. Transforming `a` against `b`
//! answers: *"`a` was generated without knowledge of `b`; what should `a`
//! become if `b` is applied first?"* — inclusion transformation (IT).
//!
//! Ties (e.g. two inserts at the same index) are broken with [`Side`]: the
//! operation on [`Side::Left`] is the one already committed to the parent's
//! history and keeps its place; the [`Side::Right`] (incoming) operation is
//! displaced. This fixed rule is what makes the merge deterministic.
//!
//! All transformation functions satisfy **TP1**
//! (`apply(apply(s, a), b') == apply(apply(s, b), a')` for concurrent
//! `a`, `b` with `a' = T(a, b)`, `b' = T(b, a)`), verified by unit and
//! property tests. TP2 is not required: the centralized rebase only ever
//! transforms against one linear history, never against two different
//! serializations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cmap;
pub mod compose;
pub mod counter;
pub mod delta;
pub mod list;
pub mod map;
pub mod register;
pub mod seq;
pub mod set;
pub mod state;
pub mod text;
pub mod tree;

use std::fmt;

/// Which side of a concurrent pair an operation is on, used for tie-breaking.
///
/// In a Spawn & Merge merge, the parent's history is already committed:
/// those operations transform with [`Side::Left`] priority (they keep their
/// place). The child's incoming operations transform with [`Side::Right`]
/// (they are displaced on ties). The rule is arbitrary but *fixed*, which is
/// all determinism needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The already-committed side; wins positional ties.
    Left,
    /// The incoming side; is displaced on positional ties.
    Right,
}

impl Side {
    /// The opposite side.
    #[must_use]
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// Result of transforming one operation against another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transformed<O> {
    /// The operation survives (possibly rewritten).
    One(O),
    /// The operation's effect is already subsumed — it becomes a no-op.
    /// Example: both sides deleted the same list element.
    None,
    /// The operation splits into two sequential operations.
    /// Example: a text range-delete interleaved by a concurrent insert.
    Two(O, O),
}

impl<O> Transformed<O> {
    /// Number of surviving pieces.
    pub fn len(&self) -> usize {
        match self {
            Transformed::None => 0,
            Transformed::One(_) => 1,
            Transformed::Two(_, _) => 2,
        }
    }

    /// True if the operation vanished.
    pub fn is_empty(&self) -> bool {
        matches!(self, Transformed::None)
    }

    /// Collect the surviving pieces into a vector, in application order.
    pub fn into_vec(self) -> Vec<O> {
        match self {
            Transformed::None => Vec::new(),
            Transformed::One(a) => vec![a],
            Transformed::Two(a, b) => vec![a, b],
        }
    }

    /// Push the surviving pieces onto `out`, in application order.
    pub fn push_into(self, out: &mut Vec<O>) {
        match self {
            Transformed::None => {}
            Transformed::One(a) => out.push(a),
            Transformed::Two(a, b) => {
                out.push(a);
                out.push(b);
            }
        }
    }
}

/// Error applying an operation to a state.
///
/// In a correct Spawn & Merge execution transformed operations always apply
/// cleanly; an `ApplyError` indicates either a corrupted log or a bug in a
/// transformation function, so the runtime surfaces it loudly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyError {
    /// Human-readable description of the failure.
    pub reason: String,
}

impl ApplyError {
    /// Construct an error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        ApplyError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "operation could not be applied: {}", self.reason)
    }
}

impl std::error::Error for ApplyError {}

/// An operation in an OT algebra: applicable to a state, transformable
/// against a concurrent operation of the same algebra.
pub trait Operation: Clone + Send + Sync + fmt::Debug + 'static {
    /// The state the operation acts on.
    type State: Clone + Send + fmt::Debug + 'static;

    /// What [`Operation::delta_rebase`] keeps from one rebase for the
    /// next over the same growing committed slice: a [`delta::Memo`] for
    /// the sequence algebras, `()` for those with no delta form.
    type Memo: Default + Send + Sync + fmt::Debug;

    /// Apply the operation to `state`.
    fn apply(&self, state: &mut Self::State) -> Result<(), ApplyError>;

    /// Whether `run` applies in order to `state`: `Ok` exactly when
    /// applying it to a copy of `state` would succeed, else the error the
    /// first failing operation would report. `state` is not changed.
    ///
    /// The default is that definition: clone `state` and
    /// [`apply_all`]. [`text::TextOp`], whose `apply` checks only the
    /// char length, overrides it with a walk over that length.
    fn check_run(state: &Self::State, run: &[Self]) -> Result<(), ApplyError> {
        apply_all(&mut state.clone(), run)
    }

    /// Inclusion transformation: rewrite `self` (generated concurrently with
    /// `against`) so it can be applied *after* `against`, preserving its
    /// intention. `side` is the side `self` is on (see [`Side`]).
    fn transform(&self, against: &Self, side: Side) -> Transformed<Self>;

    /// Try to fuse `self; next` (applied in that order) into one equivalent
    /// operation, for log compaction. `None` keeps the pair as-is.
    ///
    /// Implementations must be *state-independent* (valid on every state the
    /// pair applies to) **and rebase-preserving**: transforming a concurrent
    /// operation against the fused op must be state-equivalent to
    /// transforming it against the original pair. The property suites in
    /// `tests/` exercise this against randomized logs.
    fn compose(&self, next: &Self) -> Option<Self> {
        let _ = next;
        None
    }

    /// True when `self; next` cancel out entirely (e.g. a list insert
    /// immediately deleted again). The compactor drops both; the same
    /// rebase-preservation requirement as [`Operation::compose`] applies.
    fn annihilates(&self, next: &Self) -> bool {
        let _ = next;
        false
    }

    /// Batch rebase of `incoming` over `committed` through the sorted
    /// span-set representation in [`delta`], O(m+n) in span count instead
    /// of the O(m·n) pairwise grid.
    ///
    /// `memo` is what the previous call on it left: the committed side it
    /// folded and the incoming side it rebased. `reuse` is the caller's
    /// word that `committed` is exactly that call's committed slice
    /// followed by the run it returned — a sibling of the last child
    /// merged, with nothing written since — so the rebase continues from
    /// the memo instead of refolding `committed`. Without `reuse` the
    /// memo is rebuilt from `committed`. The result is the same either
    /// way.
    ///
    /// Sequence algebras ([`text::TextOp`], [`list::ListOp`]) override
    /// this with [`delta::rebase_delta`] over a [`delta::Memo`]. `None` —
    /// the default, and the required answer whenever a log holds an
    /// operation a span-set cannot express (`ListOp::Set`) — sends the
    /// caller to [`seq::rebase`].
    ///
    /// An override is *state-equivalent* to the grid outside one class of
    /// pairs: applying its result after `committed` reaches the grid's
    /// state. The class is an incoming insert and a later committed
    /// insert with every base unit between them deleted by one side or
    /// the other. There the grid's order depends on the order of ops
    /// inside a log, and the override is the definition: the two inserts
    /// land in base-position order, the incoming one first.
    fn delta_rebase(
        incoming: &[Self],
        committed: &[Self],
        memo: &mut Self::Memo,
        reuse: bool,
    ) -> Option<(Vec<Self>, delta::DeltaStats)> {
        let _ = (incoming, committed, memo, reuse);
        None
    }
}

/// Apply a sequence of operations to a state, failing fast.
pub fn apply_all<O: Operation>(state: &mut O::State, ops: &[O]) -> Result<(), ApplyError> {
    for op in ops {
        op.apply(state)?;
    }
    Ok(())
}

/// Check TP1 for a single concurrent pair on a given base state:
/// `s ∘ a ∘ T(b, a)` must equal `s ∘ b ∘ T(a, b)`.
///
/// Returns the two resulting states for inspection; they are equal iff the
/// transformation functions are convergent for this pair. Used pervasively
/// by the test suites.
pub fn tp1_outcome<O>(base: &O::State, a: &O, b: &O) -> Result<(O::State, O::State), ApplyError>
where
    O: Operation,
    O::State: PartialEq,
{
    let a_after_b = a.transform(b, Side::Left).into_vec();
    let b_after_a = b.transform(a, Side::Right).into_vec();

    let mut left = base.clone();
    a.apply(&mut left)?;
    apply_all(&mut left, &b_after_a)?;

    let mut right = base.clone();
    b.apply(&mut right)?;
    apply_all(&mut right, &a_after_b)?;

    Ok((left, right))
}

/// Assert TP1 holds for a pair, panicking with a diagnostic otherwise.
///
/// Test-support helper; exposed publicly so downstream crates' property
/// tests can reuse it.
pub fn assert_tp1<O>(base: &O::State, a: &O, b: &O)
where
    O: Operation,
    O::State: PartialEq + fmt::Debug,
{
    let (left, right) = tp1_outcome(base, a, b)
        .unwrap_or_else(|e| panic!("TP1 apply failure for a={a:?} b={b:?}: {e}"));
    assert_eq!(
        left, right,
        "TP1 violated: a={a:?} b={b:?} — a-first gives {left:?}, b-first gives {right:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_flip() {
        assert_eq!(Side::Left.flip(), Side::Right);
        assert_eq!(Side::Right.flip(), Side::Left);
    }

    #[test]
    fn transformed_accessors() {
        let t: Transformed<u32> = Transformed::None;
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(Transformed::One(1).len(), 1);
        assert_eq!(Transformed::Two(1, 2).len(), 2);
        assert_eq!(Transformed::Two(1, 2).into_vec(), vec![1, 2]);
        let mut out = vec![0];
        Transformed::Two(1, 2).push_into(&mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn apply_error_display() {
        let e = ApplyError::new("index 3 out of range");
        assert!(e.to_string().contains("index 3 out of range"));
    }
}
