//! Linear-time batch rebase: the **delta** (sorted span-set) representation
//! of a whole operation log.
//!
//! The pairwise grid in [`crate::seq`] costs O(|committed|·|incoming|) pair
//! transforms. When a child's edits coalesce into runs, compaction
//! ([`crate::compose`]) collapses the grid — but *scattered* edits do not
//! fuse, and the merge degrades back to the full grid. This module removes
//! that last super-linear term for the sequence algebras: an operation log
//! is folded into one normalized [`Delta`] — a sorted run-set of
//! `Retain`/`Insert`/`Delete` spans over the **fork-base coordinate
//! space** — and two deltas are transformed against each other in a single
//! merge-style sweep, O(m+n) in the number of spans regardless of scatter.
//! This is the changeset/delta treatment used by collaborative editors
//! (cf. the TP1 batch-transform formulation), specialized to the
//! Spawn & Merge rebase: the committed side always has
//! [`Side::Left`](crate::Side::Left) insert-tie priority, reproducing the
//! pairwise transform's deterministic bias.
//!
//! # Normal form
//!
//! A [`Delta`] maintains three invariants:
//!
//! 1. **Sorted, run-length form** — spans are stored in base order and
//!    adjacent same-kind spans are coalesced, so a delta has at most one
//!    span per base position and kind.
//! 2. **Adjacency order is semantic** — an insert adjacent to a delete at
//!    the same base position is *not* reordered. `Insert` before `Delete`
//!    anchors the inserted run at the **start** of the deleted gap, while
//!    `Delete` before `Insert` anchors it at the gap **end**. The two
//!    forms apply to the same document identically but *transform*
//!    differently against concurrent edits: when the gap collapses,
//!    surviving inserts from both sides order by their anchor positions,
//!    with exact ties won by the left (committed) side. The factorings
//!    `ins j s; del j+|s| m` (gap start) and `ins j+m s; del j m` (gap
//!    end) fold unambiguously; `del j m; ins j s` — insert at the gap
//!    point after deleting — is ambiguous in the log and resolves per
//!    merge side via [`GapBias`], reproducing the pairwise grid's
//!    side-dependent treatment of that factoring.
//! 3. **No trailing retain** — everything past the last edit is implicitly
//!    retained, so deltas need no knowledge of the document length.
//!
//! # Coordinate spaces
//!
//! [`from_ops`] composes a log of *sequentially applied* operations (each
//! addressed against the document produced by its predecessors) into one
//! delta addressed entirely against the **base** (fork-time) document.
//! [`Delta::transform_incoming`] requires both deltas to share that base.
//! [`Delta::into_ops`] re-materializes sequential-application operations,
//! one span op per run.
//!
//! # Folding
//!
//! A log folds one op at a time: `Delta::compose_op` splices the op into
//! the accumulated delta where its position falls. [`from_ops_biased`]
//! does that on one span vector, so each op scans from span zero to its
//! edit and moves every span behind it, O(k·s) for k ops folding to s
//! spans: 300–480 ns per op at 128 commit-shaped text edits, ascending
//! logs included. It is the reference, and [`rebase_delta`] runs it.
//! The merge memo folds with [`from_ops_counted`], which runs the same
//! splice on a window of a counted two-level span list (`SpanList`):
//! blocks of at most 62 spans, each with the output units it produces,
//! and a finger on the block the last op touched. An op walks the block
//! counts from the finger and splices one block, so a fold of k ops
//! costs O(k·(s/B + B)) for blocks of about B spans. An edit inside an
//! inserted run cuts it with [`DeltaPayload::split_off`]: the head stays
//! in the run's buffer and only the tail moves out, so a log that keeps
//! editing near the end of one long run copies what lies behind each
//! edit, not the run. Every log, whatever its length, folds this way.
//!
//! # Fallback rules
//!
//! Not every operation is a pure sequence edit — `ListOp::Set` overwrites
//! in place with last-merged-wins conflict semantics that a span-set cannot
//! express. [`DeltaOp::to_span`] returns `None` for such operations and
//! [`from_ops`] (hence [`rebase_delta`]) bails to the caller, which falls
//! back to the transformation grid. Non-sequence algebras never implement
//! [`DeltaOp`] at all and take the grid unconditionally.
//!
//! Every other pair of sequence logs rebases here, including the one
//! class where the pairwise grid's answer depends on the order of ops
//! inside a log: an incoming insert and a later committed insert with
//! every base unit between them deleted. The grid orders the two inserts
//! by which deletes ran before which insert; the sweep orders them by base
//! position, the incoming insert first. Position order, with the committed
//! side winning exact ties, is the definition of list and text merge, so
//! two log pairs with the same net edits always merge alike.
//!
//! # Batches
//!
//! Siblings merged one after another rebase against one committed delta
//! that grows by each rebased run. [`Composite`] is that delta with a
//! remembered position: the transform and the compose of one member
//! start where the member's first edit is, not at span zero, so a
//! batch in ascending position order costs its edits rather than edits ×
//! committed spans. [`Memo`] keeps it from one rebase to the next.

use std::fmt;

use crate::Operation;

/// Payload carried by insert spans: an ordered run of inserted content
/// (`String` for text, `Vec<T>` for lists), sliceable in *unit* (char /
/// element) coordinates.
pub trait DeltaPayload: Clone + PartialEq + fmt::Debug + Send + Sync + 'static {
    /// Length in units (characters for text, elements for lists).
    fn unit_len(&self) -> usize;

    /// Copy out the sub-run `[start, start + len)`, in unit coordinates.
    fn slice(&self, start: usize, len: usize) -> Self;

    /// Cut the run at unit `at`: `self` keeps `[0, at)`, in place, and the
    /// rest is returned. Only the tail is copied. `len` is the run's unit
    /// length, which every caller knows: text finds the cut walking from
    /// the nearer end.
    fn split_off(&mut self, at: usize, len: usize) -> Self;

    /// Append `other`'s content after `self`'s.
    fn append(&mut self, other: &Self);
}

impl DeltaPayload for String {
    fn unit_len(&self) -> usize {
        self.chars().count()
    }

    fn slice(&self, start: usize, len: usize) -> Self {
        self.chars().skip(start).take(len).collect()
    }

    fn split_off(&mut self, at: usize, len: usize) -> Self {
        let byte = if at <= len / 2 {
            char_byte_from_front(self, at)
        } else {
            char_byte_from_back(self, at, len)
        };
        String::split_off(self, byte)
    }

    fn append(&mut self, other: &Self) {
        self.push_str(other);
    }
}

/// The byte offset of char `at` of `s`, walking from the front: byte
/// `at` when the chars before it are ASCII.
fn char_byte_from_front(s: &str, at: usize) -> usize {
    if s.as_bytes()[..at].is_ascii() {
        at
    } else {
        s.char_indices().nth(at).map_or(s.len(), |(i, _)| i)
    }
}

/// The byte offset of char `at` of `s`, `len` chars long, walking from
/// the back: the last `len - at` bytes when they are ASCII.
fn char_byte_from_back(s: &str, at: usize, len: usize) -> usize {
    let tail = len - at;
    if s.as_bytes()[s.len() - tail..].is_ascii() {
        s.len() - tail
    } else {
        s.char_indices().rev().nth(tail - 1).map_or(0, |(i, _)| i)
    }
}

impl<T: Clone + PartialEq + fmt::Debug + Send + Sync + 'static> DeltaPayload for Vec<T> {
    fn unit_len(&self) -> usize {
        self.len()
    }

    fn slice(&self, start: usize, len: usize) -> Self {
        self[start..start + len].to_vec()
    }

    fn split_off(&mut self, at: usize, _len: usize) -> Self {
        Vec::split_off(self, at)
    }

    fn append(&mut self, other: &Self) {
        self.extend_from_slice(other);
    }
}

/// One run of a delta, in base coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span<P> {
    /// Keep the next `n` base units unchanged.
    Retain(usize),
    /// Insert the payload at the current position. `len` caches
    /// `payload.unit_len()` so text spans do not re-count characters.
    Insert {
        /// The inserted run.
        payload: P,
        /// Cached unit length of `payload`.
        len: usize,
    },
    /// Delete the next `n` base units.
    Delete(usize),
}

impl<P> Span<P> {
    /// Unit length of the span (inserted, retained, or deleted units).
    pub fn len(&self) -> usize {
        match self {
            Span::Retain(n) | Span::Delete(n) => *n,
            Span::Insert { len, .. } => *len,
        }
    }

    /// True for zero-length spans (normalized away).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Base units the span consumes (inserts consume none).
    fn base_len(&self) -> usize {
        match self {
            Span::Retain(n) | Span::Delete(n) => *n,
            Span::Insert { .. } => 0,
        }
    }

    /// Output units the span produces (deletes produce none).
    fn out_len(&self) -> usize {
        match self {
            Span::Retain(n) => *n,
            Span::Insert { len, .. } => *len,
            Span::Delete(_) => 0,
        }
    }
}

/// A position-addressed edit, the interchange form between an algebra's
/// operations and delta spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpSpan<P> {
    /// Insert `payload` so it starts at `pos` (in the coordinates of the
    /// document the operation applies to).
    Insert {
        /// Insertion position.
        pos: usize,
        /// Inserted run.
        payload: P,
    },
    /// Delete the `len` units starting at `pos`.
    Delete {
        /// First deleted position.
        pos: usize,
        /// Number of deleted units.
        len: usize,
    },
}

/// Sequence algebras whose operations round-trip through delta spans.
///
/// Implemented by [`crate::text::TextOp`] and [`crate::list::ListOp`]; the
/// grid remains the oracle and the fallback for everything else.
pub trait DeltaOp: Operation {
    /// The insert-payload type.
    type Payload: DeltaPayload;

    /// View this operation as a position-addressed span edit, or `None`
    /// when it is not expressible as one (e.g. `ListOp::Set`) — the caller
    /// must then fall back to the pairwise grid.
    fn to_span(&self) -> Option<OpSpan<Self::Payload>>;

    /// Materialize a span edit back into an operation (span forms for
    /// multi-unit runs, point forms for single units).
    fn from_span(span: OpSpan<Self::Payload>) -> Self;
}

/// Which side of its own adjacent deletion an ambiguous gap insert
/// anchors to when a log is folded into a delta.
///
/// A log step "delete `[p, p+k)`, then insert at the gap point `p`" does
/// not say which side of the collapsed gap the insert belongs to, and the
/// pairwise grid resolves it differently per merge side. On the
/// **committed** (tie-winning, `Side::Left`) side, concurrent positions
/// are transformed over the committed log, so everything landing in the
/// gap collapses onto the insert's position and loses the tie: the insert
/// behaves as if anchored at the gap *start* ([`GapBias::Start`]). On the
/// **incoming** side the committed positions have already collapsed when
/// the insert's tie is evaluated, and the insert loses to all of them: it
/// behaves as if anchored at the gap *end* ([`GapBias::End`]).
/// [`rebase_delta`] folds each side with its own bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapBias {
    /// The insert precedes the deleted run (`[Insert, Delete]` adjacency):
    /// the committed-side reading of the ambiguous factoring.
    Start,
    /// The insert follows the deleted run (`[Delete, Insert]` adjacency):
    /// the incoming-side reading.
    End,
}

/// Work actually performed by a delta-path rebase, for `MergeStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Spans in the child's (incoming) normalized delta.
    pub incoming_spans: usize,
    /// Spans in the parent's (committed) normalized delta.
    pub committed_spans: usize,
}

/// A normalized sorted span-set over a base document. See the module docs
/// for the invariants.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta<P> {
    spans: Vec<Span<P>>,
}

/// A position at a span boundary of a [`Delta`]: spans `[0, idx)` consume
/// `base` base units and produce `out` output units. The three sweeps
/// start from one; the zero finger is the start of the delta. See
/// [`Composite`] for the one that moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Finger {
    idx: usize,
    base: usize,
    out: usize,
}

impl<P: DeltaPayload> Delta<P> {
    /// The identity delta (retain everything).
    pub fn identity() -> Self {
        Delta { spans: Vec::new() }
    }

    /// True when the delta changes nothing.
    pub fn is_identity(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of normalized spans (the m and n of the O(m+n) sweep).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The normalized spans, in base order.
    pub fn spans(&self) -> &[Span<P>] {
        &self.spans
    }

    /// Length of the leading retain: the base (and output) position of
    /// the first edit.
    fn lead(&self) -> usize {
        match self.spans.first() {
            Some(Span::Retain(n)) => *n,
            _ => 0,
        }
    }

    /// A delta of one edit addressed against its own document. The slow
    /// path [`Delta::compose_op`] is pinned against; production folding
    /// never materializes singleton deltas.
    #[cfg(test)]
    fn from_op_span(op: OpSpan<P>) -> Self {
        let mut d = Delta::identity();
        match op {
            OpSpan::Insert { pos, payload } => {
                let len = payload.unit_len();
                d.push(Span::Retain(pos));
                d.push(Span::Insert { payload, len });
            }
            OpSpan::Delete { pos, len } => {
                d.push(Span::Retain(pos));
                d.push(Span::Delete(len));
            }
        }
        d.trim();
        d
    }

    /// Append a span, maintaining the normal form (coalesce same-kind
    /// neighbours, drop empties). Insert/delete adjacency order is kept
    /// as pushed — it encodes the gap anchor (see the module docs).
    fn push(&mut self, span: Span<P>) {
        if span.is_empty() {
            return;
        }
        match span {
            Span::Retain(n) => {
                if let Some(Span::Retain(m)) = self.spans.last_mut() {
                    *m += n;
                } else {
                    self.spans.push(Span::Retain(n));
                }
            }
            Span::Delete(n) => {
                if let Some(Span::Delete(m)) = self.spans.last_mut() {
                    *m += n;
                } else {
                    self.spans.push(Span::Delete(n));
                }
            }
            Span::Insert { payload, len } => {
                if let Some(Span::Insert {
                    payload: p0,
                    len: l0,
                }) = self.spans.last_mut()
                {
                    p0.append(&payload);
                    *l0 += len;
                } else {
                    self.spans.push(Span::Insert { payload, len });
                }
            }
        }
    }

    /// Drop a trailing retain (implicit by convention).
    fn trim(&mut self) {
        if let Some(Span::Retain(_)) = self.spans.last() {
            self.spans.pop();
        }
    }

    /// Index-scan from `from` to output position `pos` (at or past the
    /// finger's) without moving anything: returns `(cut, rest)` where
    /// spans `[0, cut)` end at or before the position and `rest` output
    /// units of `spans[cut]` (or of the implicit trailing retain) still
    /// lie before it. Deletes occupy no output positions and pass
    /// through; when the position is reached at a span boundary the scan
    /// stops *before* whatever span is adjacent there, so the caller's
    /// sweep decides insert/delete adjacency.
    fn scan_from(&self, from: Finger, pos: usize) -> (usize, usize) {
        let (mut cut, mut rest) = (from.idx, pos - from.out);
        while cut < self.spans.len() && rest > 0 {
            let out_len = self.spans[cut].out_len();
            if out_len > rest {
                break;
            }
            rest -= out_len;
            cut += 1;
        }
        (cut, rest)
    }

    /// Compose `self` (base → A) with `run` (A → B) into `self` (base →
    /// B), in place. When a `run`-insert coincides with a `self`-delete
    /// (the "delete, then insert at the gap" factoring), [`GapBias::Start`]
    /// emits the insert before the deleted run and [`GapBias::End`] after
    /// it: extensionally equal, but the adjacency order they encode
    /// transforms differently (see the module docs).
    ///
    /// The index scan starts at `from`, a finger whose output position
    /// lies at or before `run`'s leading retain: the spans before it are
    /// not even read. Everything `self` holds before `run`'s leading
    /// retain stays where it is — nothing before `spans[cut - 1]` changes, and
    /// that one span may grow, when what the sweep pushes first coalesces
    /// into it — and the sweep ends with `run`: whatever of `self` lies
    /// behind the run's last edit moves back unread. So the cost is the
    /// spans the run actually overlaps, not the size of `self`, and a run
    /// past the end of `self` appends.
    fn compose_from(&mut self, from: Finger, run: &Delta<P>, bias: GapBias) {
        // An identity run has no leading retain to be at or past `from`.
        if run.is_identity() {
            return;
        }
        let lead = run.lead();
        let (cut, rest) = self.scan_from(from, lead);
        let suffix = self.spans.split_off(cut);
        let mut a = Cursor::new(&suffix);
        let mut b = Cursor::new(&run.spans);
        // The part of the leading retain the untouched prefix covers.
        if lead > rest {
            b.take(lead - rest);
        }
        while let Some(sb) = b.peek() {
            // Base units deleted by `a` were never seen by `b`; content
            // inserted by `b` exists regardless of `a`. When both are
            // current the bias picks which drains first.
            let b_inserts = matches!(sb, Span::Insert { .. });
            match a.peek() {
                Some(Span::Delete(_)) if bias == GapBias::End || !b_inserts => {
                    self.push(Span::Delete(a.take_all()));
                }
                _ if b_inserts => {
                    let n = b.remaining();
                    let (payload, len) = b.take_insert(n);
                    self.push(Span::Insert { payload, len });
                }
                // `a` exhausted: implicit retain under the rest of `b`.
                None => {
                    let n = b.take_all();
                    self.push(match sb {
                        Span::Retain(_) => Span::Retain(n),
                        _ => Span::Delete(n),
                    });
                }
                Some(sa) => {
                    let n = a.remaining().min(b.remaining());
                    let deletes = matches!(sb, Span::Delete(_));
                    b.take(n);
                    match sa {
                        Span::Retain(_) if deletes => {
                            a.take(n);
                            self.push(Span::Delete(n));
                        }
                        Span::Retain(_) => {
                            a.take(n);
                            self.push(Span::Retain(n));
                        }
                        // Inserted by `a`, deleted by `b`: annihilates.
                        Span::Insert { .. } if deletes => a.take(n),
                        Span::Insert { .. } => {
                            let (payload, len) = a.take_insert(n);
                            self.push(Span::Insert { payload, len });
                        }
                        Span::Delete(_) => unreachable!("a-deletes drained above"),
                    }
                }
            }
        }
        // `run` is exhausted: the rest of `a` is unchanged. Finish the
        // span the sweep stopped inside, let the next one coalesce with
        // what was pushed last, and bulk-move what follows (already
        // pairwise normalized).
        let (idx, off) = (a.idx, a.off);
        if off > 0 {
            let n = a.remaining();
            match &suffix[idx] {
                Span::Retain(_) => self.push(Span::Retain(n)),
                Span::Delete(_) => self.push(Span::Delete(n)),
                Span::Insert { .. } => {
                    let (payload, len) = a.take_insert(n);
                    self.push(Span::Insert { payload, len });
                }
            }
        }
        let mut tail = suffix.into_iter().skip(idx + usize::from(off > 0));
        if let Some(span) = tail.next() {
            self.push(span);
        }
        self.spans.extend(tail);
        self.trim();
    }

    /// By-value composition `self` (base → A) ∘ `other` (A → B): the
    /// one-sweep definition [`Delta::compose_from`] and
    /// [`Delta::compose_op`] are pinned against.
    #[cfg(test)]
    fn compose_biased(&self, other: &Delta<P>, bias: GapBias) -> Delta<P> {
        let mut a = Cursor::new(&self.spans);
        let mut b = Cursor::new(&other.spans);
        let mut out = Delta::identity();
        loop {
            // Base units deleted by `a` were never seen by `b`; content
            // inserted by `b` exists regardless of `a`. When both are
            // current the bias picks which drains first.
            let a_deletes = matches!(a.peek(), Some(Span::Delete(_)));
            let b_inserts = matches!(b.peek(), Some(Span::Insert { .. }));
            if a_deletes && (bias == GapBias::End || !b_inserts) {
                out.push(Span::Delete(a.take_all()));
                continue;
            }
            if b_inserts {
                let n = b.remaining();
                let (payload, len) = b.take_insert(n);
                out.push(Span::Insert { payload, len });
                continue;
            }
            match (a.peek(), b.peek()) {
                (None, None) => break,
                // `b` exhausted: implicit retain of the rest of `a`.
                (Some(Span::Retain(_)), None) => out.push(Span::Retain(a.take_all())),
                (Some(Span::Insert { .. }), None) => {
                    let n = a.remaining();
                    let (payload, len) = a.take_insert(n);
                    out.push(Span::Insert { payload, len });
                }
                // `a` exhausted: implicit retain under the rest of `b`.
                (None, Some(Span::Retain(_))) => out.push(Span::Retain(b.take_all())),
                (None, Some(Span::Delete(_))) => out.push(Span::Delete(b.take_all())),
                (Some(Span::Delete(_)), _) | (_, Some(Span::Insert { .. })) => {
                    unreachable!("b-inserts and a-deletes drained above")
                }
                (Some(sa), Some(sb)) => {
                    let n = a.remaining().min(b.remaining());
                    match (sa, sb) {
                        (Span::Retain(_), Span::Retain(_)) => {
                            a.take(n);
                            b.take(n);
                            out.push(Span::Retain(n));
                        }
                        (Span::Retain(_), Span::Delete(_)) => {
                            a.take(n);
                            b.take(n);
                            out.push(Span::Delete(n));
                        }
                        (Span::Insert { .. }, Span::Retain(_)) => {
                            let (payload, len) = a.take_insert(n);
                            b.take(n);
                            out.push(Span::Insert { payload, len });
                        }
                        (Span::Insert { .. }, Span::Delete(_)) => {
                            // Inserted by `a`, deleted by `b`: annihilates.
                            a.take(n);
                            b.take(n);
                        }
                        _ => unreachable!("delete/insert handled above"),
                    }
                }
            }
        }
        out.trim();
        out
    }

    /// Compose one position-addressed edit (in this delta's *output*
    /// coordinates) into `self`, in place. Semantically identical to
    /// composing with the singleton delta of `op` under `bias`; of an
    /// insert run the edit splits, only the tail is copied. This is the fold
    /// step of [`from_ops_biased`]: it scans from span zero to the edit
    /// and moves every span behind it out and back, so a log of k ops
    /// folding to s spans costs O(k · s) span reads and moves.
    /// [`from_ops_counted`] runs the same splice on a window of a
    /// [`SpanList`], a block or a few, instead of on the whole delta.
    fn compose_op(&mut self, op: OpSpan<P>, bias: GapBias, scratch: &mut Vec<Span<P>>) {
        let (pos, edit) = edit_of(op);
        self.splice(pos, edit, bias, scratch);
        self.trim();
    }

    /// [`Delta::compose_op`] without the final trim, on an edit split by
    /// [`edit_of`]: a [`SpanList`] window that is not the last block keeps
    /// its trailing retain.
    fn splice(
        &mut self,
        pos: usize,
        edit: Result<(P, usize), usize>,
        bias: GapBias,
        scratch: &mut Vec<Span<P>>,
    ) {
        // Spans `[0, cut)` are untouched prefix; at a span boundary the
        // scan stops before any adjacent delete, so the edit phases below
        // see it.
        let (cut, skip) = self.scan_from(Finger::default(), pos);
        // The untouched prefix `[0, cut)` stays where it is: only the
        // suffix moves, out into the caller's scratch buffer (whose
        // capacity persists across the whole fold) and back in behind
        // the edit. An op that lands at the end of the delta — a log in
        // ascending position order — moves nothing.
        scratch.clear();
        scratch.extend(self.spans.drain(cut..));
        let mut it = scratch.drain(..);
        // Remainder of a span split by the edit position, to be consumed
        // before the iterator resumes.
        let mut pending: Option<Span<P>> = None;
        if skip > 0 {
            match it.next() {
                // Into the implicit trailing retain.
                None => self.push(Span::Retain(skip)),
                Some(Span::Retain(n)) => {
                    self.push(Span::Retain(skip));
                    pending = Some(Span::Retain(n - skip));
                }
                // The head stays in the run's own buffer, so an edit near
                // the end of a long run copies what follows it, not the run.
                Some(Span::Insert { mut payload, len }) => {
                    let tail = payload.split_off(skip, len);
                    self.push(Span::Insert { payload, len: skip });
                    pending = Some(Span::Insert {
                        payload: tail,
                        len: len - skip,
                    });
                }
                Some(Span::Delete(_)) => unreachable!("deletes occupy no output positions"),
            }
        }
        match edit {
            Ok((payload, len)) => {
                // A gap-end insert anchors after an adjacent deleted run
                // ([D, I]); gap-start before it ([I, D]). Normal form
                // coalesces deletes, so "the run" is at most one span, and
                // only at a span boundary (`pending` empty) can the insert
                // be gap-adjacent at all.
                if bias == GapBias::End && pending.is_none() {
                    match it.next() {
                        Some(Span::Delete(n)) => self.push(Span::Delete(n)),
                        other => pending = other,
                    }
                }
                self.push(Span::Insert { payload, len });
            }
            Err(mut del) => {
                while del > 0 {
                    match pending.take().or_else(|| it.next()) {
                        // Into the implicit trailing retain: the rest of
                        // the deletion is all base units.
                        None => {
                            self.push(Span::Delete(del));
                            del = 0;
                        }
                        // Already-deleted base units occupy no output
                        // positions; they pass through unconsumed.
                        Some(Span::Delete(n)) => self.push(Span::Delete(n)),
                        Some(Span::Retain(n)) => {
                            let m = n.min(del);
                            del -= m;
                            self.push(Span::Delete(m));
                            if n > m {
                                pending = Some(Span::Retain(n - m));
                            }
                        }
                        // Deleting our own earlier insert: annihilates.
                        Some(Span::Insert { mut payload, len }) => {
                            let m = len.min(del);
                            del -= m;
                            if len > m {
                                pending = Some(Span::Insert {
                                    payload: payload.split_off(m, len),
                                    len: len - m,
                                });
                            }
                        }
                    }
                }
            }
        }
        if let Some(s) = pending {
            self.push(s);
        }
        // Seam: the first remaining span may coalesce with what the edit
        // pushed; after it the suffix is already pairwise normalized and
        // bulk-moves.
        if let Some(s) = it.next() {
            self.push(s);
        }
        self.spans.extend(it);
    }

    /// Transform `incoming` over `self` (committed), two concurrent deltas
    /// sharing a base: returns `incoming'` with
    /// `base ∘ self ∘ incoming' == base ∘ incoming ∘ self'`.
    ///
    /// One merge-style sweep over both sorted span-sets that ends with
    /// `incoming` — everything behind its last edit is implicitly
    /// retained — and allocates nothing for the committed side. Tie rules
    /// reproduce the pairwise grid bit for bit: at equal base positions
    /// the committed insert lands first; base units both sides delete are
    /// deleted once; an insert interior to the committed side's delete
    /// survives at the deletion point.
    pub fn transform_incoming(&self, incoming: &Delta<P>) -> Delta<P> {
        self.transform_from(Finger::default(), incoming)
    }

    /// [`Delta::transform_incoming`] started at `from`, a finger whose
    /// base position lies inside `incoming`'s leading retain: under a
    /// retain every committed span before the finger transforms to a
    /// retain of what it outputs, so the skipped prefix is one
    /// `Retain(from.out)`.
    fn transform_from(&self, from: Finger, incoming: &Delta<P>) -> Delta<P> {
        let (mut l, mut r) = self.cursors_from(from, incoming);
        let mut out = Delta::identity();
        out.push(Span::Retain(from.out));
        while let Some(sr) = r.peek() {
            // Inserts are processed before deletes/retains at the same
            // base position, committed before incoming — the insert-tie
            // bias. Anchoring does the rest: a gap insert stored before
            // its side's delete is swept here at the gap-start position,
            // one stored after it only once the delete is consumed, so
            // the per-side [`GapBias`] folding makes this position-ordered
            // sweep reproduce the grid's collapsed-gap ordering. An
            // insert separated from a *later* committed insert only by
            // deleted units lands first, by position (module docs).
            match (l.peek(), sr) {
                (Some(Span::Insert { .. }), _) => out.push(Span::Retain(l.take_all())),
                (_, Span::Insert { .. }) => {
                    let n = r.remaining();
                    let (payload, len) = r.take_insert(n);
                    out.push(Span::Insert { payload, len });
                }
                (None, Span::Retain(_)) => out.push(Span::Retain(r.take_all())),
                (None, Span::Delete(_)) => out.push(Span::Delete(r.take_all())),
                (Some(sl), _) => {
                    let n = l.remaining().min(r.remaining());
                    l.take(n);
                    r.take(n);
                    match (sl, sr) {
                        (Span::Retain(_), Span::Retain(_)) => out.push(Span::Retain(n)),
                        (Span::Retain(_), _) => out.push(Span::Delete(n)),
                        // Deleted by the committed side: `incoming'`
                        // never mentions the unit, whatever it did to it.
                        _ => {}
                    }
                }
            }
        }
        out.trim();
        out
    }

    /// The two-sided transform `(left', right')` with
    /// `base ∘ right ∘ left' == base ∘ left ∘ right'`: the definition
    /// [`Delta::transform_incoming`] (its `right'`) is pinned against.
    #[cfg(test)]
    fn transform(&self, other: &Delta<P>) -> (Delta<P>, Delta<P>) {
        let mut l = Cursor::new(&self.spans);
        let mut r = Cursor::new(&other.spans);
        let mut left_out = Delta::identity();
        let mut right_out = Delta::identity();
        loop {
            // Inserts are processed before deletes/retains at the same
            // base position, left before right — the insert-tie bias.
            // Anchoring does the rest: a gap insert stored before its
            // side's delete is swept here at the gap-start position, one
            // stored after it only once the delete is consumed, so the
            // per-side [`GapBias`] folding makes this position-ordered
            // sweep reproduce the grid's collapsed-gap ordering. An
            // insert separated from a *later* left insert only by deleted
            // units lands first, by position (module docs).
            if let Some(Span::Insert { .. }) = l.peek() {
                let n = l.remaining();
                let (payload, len) = l.take_insert(n);
                left_out.push(Span::Insert { payload, len });
                right_out.push(Span::Retain(len));
                continue;
            }
            if let Some(Span::Insert { .. }) = r.peek() {
                let n = r.remaining();
                let (payload, len) = r.take_insert(n);
                left_out.push(Span::Retain(len));
                right_out.push(Span::Insert { payload, len });
                continue;
            }
            match (l.peek(), r.peek()) {
                (None, None) => break,
                (Some(Span::Retain(_)), None) => {
                    left_out.push(Span::Retain(l.take_all()));
                }
                (Some(Span::Delete(_)), None) => {
                    left_out.push(Span::Delete(l.take_all()));
                }
                (None, Some(Span::Retain(_))) => {
                    right_out.push(Span::Retain(r.take_all()));
                }
                (None, Some(Span::Delete(_))) => {
                    right_out.push(Span::Delete(r.take_all()));
                }
                (Some(Span::Insert { .. }), _) | (_, Some(Span::Insert { .. })) => {
                    unreachable!("inserts drained above")
                }
                (Some(sl), Some(sr)) => {
                    let n = l.remaining().min(r.remaining());
                    match (sl, sr) {
                        (Span::Retain(_), Span::Retain(_)) => {
                            l.take(n);
                            r.take(n);
                            left_out.push(Span::Retain(n));
                            right_out.push(Span::Retain(n));
                        }
                        (Span::Delete(_), Span::Retain(_)) => {
                            // Deleted by left only: left' still deletes it;
                            // right' never mentions it.
                            l.take(n);
                            r.take(n);
                            left_out.push(Span::Delete(n));
                        }
                        (Span::Retain(_), Span::Delete(_)) => {
                            l.take(n);
                            r.take(n);
                            right_out.push(Span::Delete(n));
                        }
                        (Span::Delete(_), Span::Delete(_)) => {
                            // Both deleted the same base units: the effect
                            // happens once; neither side re-deletes.
                            l.take(n);
                            r.take(n);
                        }
                        _ => unreachable!("inserts handled above"),
                    }
                }
            }
        }
        left_out.trim();
        right_out.trim();
        (left_out, right_out)
    }

    /// The committed (`self`) and incoming cursors of a sweep that starts
    /// at `from`: the committed one on `spans[from.idx]`, the incoming one
    /// `from.base` units into its leading retain.
    fn cursors_from<'a>(
        &'a self,
        from: Finger,
        incoming: &'a Delta<P>,
    ) -> (Cursor<'a, P>, Cursor<'a, P>) {
        debug_assert!(from == Finger::default() || from.base < incoming.lead());
        let l = Cursor {
            spans: &self.spans,
            idx: from.idx,
            off: 0,
        };
        let r = Cursor {
            spans: &incoming.spans,
            idx: 0,
            off: from.base,
        };
        (l, r)
    }

    /// Re-materialize sequential-application operations, one per span run,
    /// in left-to-right order.
    pub fn into_ops<O>(self) -> Vec<O>
    where
        O: DeltaOp<Payload = P>,
    {
        let mut pos = 0usize;
        // At most one op per span.
        let mut ops = Vec::with_capacity(self.spans.len());
        let mut it = self.spans.into_iter().peekable();
        while let Some(span) = it.next() {
            match span {
                Span::Retain(n) => pos += n,
                Span::Insert { payload, len } => {
                    ops.push(O::from_span(OpSpan::Insert { pos, payload }));
                    pos += len;
                }
                Span::Delete(n) => {
                    if matches!(it.peek(), Some(Span::Insert { .. })) {
                        // Delete-before-insert anchors the run at the gap
                        // *end*: materialize as "insert past the doomed
                        // units, then delete them" so `from_ops` folds the
                        // log back to this exact factoring.
                        let Some(Span::Insert { payload, len }) = it.next() else {
                            unreachable!("peeked an insert span");
                        };
                        ops.push(O::from_span(OpSpan::Insert {
                            pos: pos + n,
                            payload,
                        }));
                        ops.push(O::from_span(OpSpan::Delete { pos, len: n }));
                        pos += len;
                    } else {
                        ops.push(O::from_span(OpSpan::Delete { pos, len: n }));
                    }
                }
            }
        }
        ops
    }
}

/// A committed composite that absorbs a batch of concurrent deltas one at
/// a time — a [`Memo`]'s *everything committed since the fork
/// base* — and remembers where the last one began.
///
/// [`Composite::absorb`] is [`rebase_delta`]'s transform step plus the
/// in-place compose that keeps the composite current, with both sweeps
/// started at a **finger** instead of at span zero: a span
/// boundary every span before which ends strictly before the incoming
/// delta's first edit. Before the finger the incoming delta only retains,
/// so the transform is one `Retain` of what the skipped spans output, and
/// the compose leaves them where they are. An absorb therefore costs the
/// incoming delta plus the composite spans at and behind its first edit,
/// and a batch in ascending position order — the paper's data-parallel
/// fan-out — costs its edits, not edits × composite.
///
/// The finger rests **one span behind** what it could skip: the compose
/// coalesces the first span it pushes into the last span before its cut,
/// and a finger that had counted that span would go stale. Every
/// insert/delete adjacency at the first edit stays with the sweeps.
#[derive(Debug)]
pub struct Composite<P> {
    delta: Delta<P>,
    /// Nothing before it has changed since it was measured. Either zero,
    /// or `delta.spans[finger.idx]` ended strictly before the leading
    /// retain of the last delta absorbed.
    finger: Finger,
}

impl<P: DeltaPayload> Composite<P> {
    /// Start from `delta`, everything committed so far.
    pub fn new(delta: Delta<P>) -> Self {
        Composite {
            delta,
            finger: Finger::default(),
        }
    }

    /// Spans in the composite (the `committed_spans` of a rebase
    /// against it).
    pub fn span_count(&self) -> usize {
        self.delta.span_count()
    }

    /// Rebase `incoming` — concurrent with the composite, over the same
    /// base — and take the rebased delta in: what
    /// [`Delta::transform_incoming`] returns, after which the composite
    /// is composed with that, in place.
    pub fn absorb(&mut self, incoming: &Delta<P>) -> Delta<P> {
        self.seek(incoming.lead());
        let rebased = self.delta.transform_from(self.finger, incoming);
        // The resting span ends strictly before `incoming`'s first edit,
        // so it ends before `rebased`'s too and the cut falls behind it:
        // the spans the finger has counted do not change.
        self.delta
            .compose_from(self.finger, &rebased, GapBias::Start);
        rebased
    }

    /// Move the finger for a delta whose leading retain is `lead` base
    /// units: back while the span it rests on reaches `lead`, then
    /// forward while the span *after* that one ends strictly before it.
    fn seek(&mut self, lead: usize) {
        let spans = &self.delta.spans;
        let f = &mut self.finger;
        while f.idx > 0 && f.base + spans[f.idx].base_len() >= lead {
            f.idx -= 1;
            f.base -= spans[f.idx].base_len();
            f.out -= spans[f.idx].out_len();
        }
        while let [here, next, ..] = &spans[f.idx..] {
            if f.base + here.base_len() + next.base_len() >= lead {
                break;
            }
            f.idx += 1;
            f.base += here.base_len();
            f.out += here.out_len();
        }
    }
}

/// Read cursor over a span list with partial-span consumption; an
/// exhausted cursor reads as an implicit infinite retain to its caller.
struct Cursor<'a, P> {
    spans: &'a [Span<P>],
    idx: usize,
    /// Units already consumed from `spans[idx]`.
    off: usize,
}

impl<'a, P: DeltaPayload> Cursor<'a, P> {
    fn new(spans: &'a [Span<P>]) -> Self {
        Cursor {
            spans,
            idx: 0,
            off: 0,
        }
    }

    fn peek(&self) -> Option<&'a Span<P>> {
        self.spans.get(self.idx)
    }

    /// Unconsumed units of the current span.
    fn remaining(&self) -> usize {
        self.peek().map_or(0, |s| s.len() - self.off)
    }

    /// Consume `n` units of the current span (retain/delete kinds).
    fn take(&mut self, n: usize) {
        debug_assert!(n <= self.remaining());
        self.off += n;
        if self.off == self.spans[self.idx].len() {
            self.idx += 1;
            self.off = 0;
        }
    }

    /// Consume the whole remainder of the current span, returning its
    /// unit length.
    fn take_all(&mut self) -> usize {
        let n = self.remaining();
        self.take(n);
        n
    }

    /// Consume `n` units of the current insert span, returning the
    /// payload sub-run (and its length).
    fn take_insert(&mut self, n: usize) -> (P, usize) {
        let Some(Span::Insert { payload, len }) = self.peek() else {
            unreachable!("take_insert on a non-insert span");
        };
        let piece = if self.off == 0 && n == *len {
            payload.clone()
        } else {
            payload.slice(self.off, n)
        };
        self.take(n);
        (piece, n)
    }
}

/// Fold a sequentially-applied operation log into one base-coordinate
/// delta, splicing each op into the accumulator in place
/// (`Delta::compose_op`), copying only the tail of an insert run an op
/// splits. Ambiguous gap inserts anchor with the committed-side
/// [`GapBias::Start`]; use [`from_ops_biased`] to fold an incoming-side
/// log.
///
/// Returns `None` when any operation is not expressible as a span edit;
/// the caller falls back to the grid.
pub fn from_ops<O: DeltaOp>(ops: &[O]) -> Option<Delta<O::Payload>> {
    from_ops_biased(ops, GapBias::Start)
}

/// [`from_ops`] with an explicit per-side [`GapBias`] for ambiguous gap
/// inserts. [`rebase_delta`] folds the committed log with
/// [`GapBias::Start`] and the incoming log with [`GapBias::End`].
///
/// The straight fold: every op scans the accumulator from span zero and
/// moves every span behind its edit, O(k · s) for k ops folding to s
/// spans. It is the reference [`from_ops_counted`] is tested against,
/// and what [`rebase_delta`] runs.
pub fn from_ops_biased<O: DeltaOp>(ops: &[O], bias: GapBias) -> Option<Delta<O::Payload>> {
    let mut acc = Delta::identity();
    let mut scratch = Vec::new();
    for op in ops {
        acc.compose_op(op.to_span()?, bias, &mut scratch);
    }
    Some(acc)
}

/// [`from_ops_biased`] over a counted two-level span list (`SpanList`):
/// span for span the same delta, but an op costs a walk over the block
/// counts from the block the last op touched plus one block's splice,
/// instead of a scan from span zero and a move of every span behind the
/// edit. Until the delta outgrows one block it runs the same splices on
/// one vector, sized for the whole log up front, so a short log
/// allocates no more than [`from_ops_biased`] does. The merge memo's
/// fold, for logs of every length.
pub fn from_ops_counted<O: DeltaOp>(ops: &[O], bias: GapBias) -> Option<Delta<O::Payload>> {
    counted_fold::<O, BLOCK_SPANS>(ops, bias)
}

/// Most spans one block of the counted fold holds after an edit. A splice
/// grows a block by at most two spans before it is cut, so a block's
/// vector never outgrows 64. Measured on `bench_merge`'s `delta_fold`
/// rows (DESIGN §3.6).
const BLOCK_SPANS: usize = 62;

/// [`from_ops_counted`] with blocks of at most `MAX` spans.
fn counted_fold<O: DeltaOp, const MAX: usize>(
    ops: &[O],
    bias: GapBias,
) -> Option<Delta<O::Payload>> {
    // An op adds two spans at most: the first block's vector holds the
    // whole delta at the end.
    let mut acc = Delta {
        spans: Vec::with_capacity(2 * ops.len()),
    };
    let mut scratch = Vec::new();
    let mut ops = ops.iter();
    // Until the delta outgrows one block it is the straight fold.
    while acc.spans.len() <= MAX {
        let Some(op) = ops.next() else {
            return Some(acc);
        };
        acc.compose_op(op.to_span()?, bias, &mut scratch);
    }
    let mut list = SpanList::<_, MAX>::new(acc, ops.len());
    for op in ops {
        list.compose_op(op.to_span()?, bias, &mut scratch);
    }
    Some(list.into_delta())
}

/// An op as [`Delta::splice`] takes it: the position, and either the
/// inserted run with its unit length or the number of deleted units.
fn edit_of<P: DeltaPayload>(op: OpSpan<P>) -> (usize, Result<(P, usize), usize>) {
    match op {
        OpSpan::Insert { pos, payload } => {
            let len = payload.unit_len();
            (pos, Ok((payload, len)))
        }
        OpSpan::Delete { pos, len } => (pos, Err(len)),
    }
}

/// The counted fold's accumulator: a normalized delta cut into blocks of
/// at most `MAX` spans, each with the output units it produces, and a
/// finger on the block the last edit started in.
///
/// Concatenated, the blocks are the delta. Normal form holds across the
/// seams, and only the last block drops its trailing retain. An edit at
/// output position `pos` reaching to `reach` (`pos`, or `pos + len` for
/// a delete) is spliced by [`Delta::splice`] into a **window**: the
/// first block whose running output count reaches `pos`, extended by the
/// blocks after it while its output ends at or before `reach`. So the
/// window holds every span the straight fold's splice reads, and ends
/// with output past `reach` unless it is the end of the list: what the
/// splice pushes first and last cannot coalesce across a seam, and only
/// a window at the end trims.
struct SpanList<P, const MAX: usize> {
    /// Never empty; only a sole block may hold no span.
    blocks: Vec<Block<P>>,
    /// The block the last edit started in, and the output units of the
    /// blocks before it.
    finger: (usize, usize),
}

/// One block of a [`SpanList`].
struct Block<P> {
    spans: Vec<Span<P>>,
    /// Output units `spans` produce.
    out: usize,
}

impl<P: DeltaPayload, const MAX: usize> SpanList<P, MAX> {
    /// The list of `delta`, sized for `ops` more edits.
    fn new(delta: Delta<P>, ops: usize) -> Self {
        let out = delta.spans.iter().map(Span::out_len).sum();
        // An edit adds two spans at most; blocks are cut at least half full.
        let mut blocks = Vec::with_capacity((delta.spans.len() + 2 * ops) / MAX.div_ceil(2) + 1);
        blocks.push(Block {
            spans: Vec::new(),
            out: 0,
        });
        let mut list = SpanList {
            blocks,
            finger: (0, 0),
        };
        list.put(0, delta.spans, out);
        list
    }

    /// [`Delta::compose_op`] on the list: splice the edit into its window
    /// and store the window back, cut into blocks. The window's output
    /// count follows from the edit alone.
    fn compose_op(&mut self, op: OpSpan<P>, bias: GapBias, scratch: &mut Vec<Span<P>>) {
        let (pos, edit) = edit_of(op);
        let reach = match &edit {
            Ok(_) => pos,
            Err(len) => pos + len,
        };
        let (first, before) = self.seek(pos);
        let mut last = first;
        let mut out = self.blocks[first].out;
        while before + out <= reach && last + 1 < self.blocks.len() {
            last += 1;
            out += self.blocks[last].out;
        }
        let at_end = last + 1 == self.blocks.len();
        let mut window = Delta {
            spans: std::mem::take(&mut self.blocks[first].spans),
        };
        for mut block in self.blocks.drain(first + 1..=last) {
            window.spans.append(&mut block.spans);
        }
        // Past the window's output the splice reads the implicit
        // trailing retain, which only the last window has.
        let local = pos - before;
        out = match &edit {
            Ok((_, len)) => out.max(local) + len,
            Err(len) => out.saturating_sub(*len).max(local),
        };
        window.splice(local, edit, bias, scratch);
        if at_end {
            if let Some(&Span::Retain(n)) = window.spans.last() {
                window.spans.pop();
                out -= n;
            }
        }
        self.put(first, window.spans, out);
        self.finger = match self.blocks.get(first) {
            Some(_) => (first, before),
            None => (first - 1, before - self.blocks[first - 1].out),
        };
    }

    /// The first block whose running output count reaches `pos` (the
    /// last block if none does) and the output of the blocks before it,
    /// walked from the finger: an edit near the last one costs a step or
    /// two.
    fn seek(&self, pos: usize) -> (usize, usize) {
        let (mut at, mut before) = self.finger;
        while at > 0 && before >= pos {
            at -= 1;
            before -= self.blocks[at].out;
        }
        while at + 1 < self.blocks.len() && before + self.blocks[at].out < pos {
            before += self.blocks[at].out;
            at += 1;
        }
        (at, before)
    }

    /// Store `spans`, which produce `out` units, as block `at`: cut into
    /// blocks when they exceed `MAX`, dropped when they are empty and not
    /// the only block. Only the last block can empty: any other window
    /// keeps output past the edit's reach.
    fn put(&mut self, at: usize, mut spans: Vec<Span<P>>, mut out: usize) {
        debug_assert_eq!(out, spans.iter().map(Span::out_len).sum::<usize>());
        let last = at + 1 == self.blocks.len();
        if spans.is_empty() && self.blocks.len() > 1 {
            self.blocks.remove(at);
            return;
        }
        // Blocks are cut even, except the last one, which is cut as full
        // as it can be: a log in ascending position order appends to it.
        let (len, pieces) = (spans.len(), spans.len().div_ceil(MAX));
        let cut = |i: usize| if last { i * MAX } else { len * i / pieces };
        for i in (1..pieces).rev() {
            let mut piece = Vec::with_capacity(MAX + 2);
            piece.extend(spans.drain(cut(i)..));
            let piece_out = piece.iter().map(Span::out_len).sum();
            out -= piece_out;
            let block = Block {
                spans: piece,
                out: piece_out,
            };
            self.blocks.insert(at + 1, block);
        }
        self.blocks[at] = Block { spans, out };
    }

    /// The blocks concatenated, in the first block's vector.
    fn into_delta(self) -> Delta<P> {
        let len = self.blocks.iter().map(|b| b.spans.len()).sum::<usize>();
        let mut blocks = self.blocks.into_iter();
        let mut spans = blocks.next().map(|b| b.spans).unwrap_or_default();
        spans.reserve(len - spans.len());
        for mut block in blocks {
            spans.append(&mut block.spans);
        }
        Delta { spans }
    }
}

/// Batch rebase of `incoming` over `committed` (both sequentially applied
/// from the same fork base) through the delta representation: compose each
/// side into a sorted span-set (with its side's [`GapBias`]), transform
/// them in one linear sweep with committed-side insert-tie priority, and
/// re-materialize the incoming side. Returns `None` (grid fallback) when
/// either log contains an operation a span-set cannot express.
pub fn rebase_delta<O: DeltaOp>(incoming: &[O], committed: &[O]) -> Option<(Vec<O>, DeltaStats)> {
    let inc = from_ops_biased(incoming, GapBias::End)?;
    let com = from_ops_biased(committed, GapBias::Start)?;
    let stats = DeltaStats {
        incoming_spans: inc.span_count(),
        committed_spans: com.span_count(),
    };
    Some((com.transform_incoming(&inc).into_ops(), stats))
}

/// What one delta rebase leaves for the next over the same committed
/// slice: the committed fold, and the incoming delta it rebased.
///
/// A sibling merged right after reuses it: its committed slice is the
/// last one plus the run just appended, which is the composite after
/// [`Composite::absorb`]ing that incoming delta. The absorb waits for the
/// sibling, so a memo nobody reuses cost the rebase nothing beyond what
/// [`rebase_delta`] pays — both folds are kept by a move — and once
/// reused, each rebase composes its own run as it goes.
#[derive(Debug)]
pub struct Memo<P> {
    composite: Composite<P>,
    /// The last incoming delta, not yet absorbed into `composite`.
    pending: Option<Delta<P>>,
}

impl<P: DeltaPayload> Default for Memo<P> {
    fn default() -> Self {
        Memo {
            composite: Composite::new(Delta::identity()),
            pending: None,
        }
    }
}

impl<P: DeltaPayload> Memo<P> {
    /// [`rebase_delta`], and keep what it folded. With `reuse` the
    /// committed side is the memo — see [`crate::Operation::delta_rebase`]
    /// for when the caller may say so — and `committed` is not read.
    /// Logs of every length fold by [`from_ops_counted`]. `None` when an
    /// op is not span-expressible.
    pub(crate) fn rebase<O: DeltaOp<Payload = P>>(
        &mut self,
        incoming: &[O],
        committed: &[O],
        reuse: bool,
    ) -> Option<(Vec<O>, DeltaStats)> {
        let inc = from_ops_counted(incoming, GapBias::End)?;
        if !reuse {
            let com = from_ops_counted(committed, GapBias::Start)?;
            let stats = DeltaStats {
                incoming_spans: inc.span_count(),
                committed_spans: com.span_count(),
            };
            let ops = com.transform_incoming(&inc).into_ops();
            *self = Memo {
                composite: Composite::new(com),
                pending: Some(inc),
            };
            return Some((ops, stats));
        }
        if let Some(last) = self.pending.take() {
            self.composite.absorb(&last);
        }
        let stats = DeltaStats {
            incoming_spans: inc.span_count(),
            committed_spans: self.composite.span_count(),
        };
        Some((self.composite.absorb(&inc).into_ops(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::ListOp;
    use crate::text::TextOp;
    use crate::{apply_all, seq};
    use proptest::prelude::*;

    fn text_delta(ops: &[TextOp]) -> Delta<String> {
        from_ops(ops).expect("text ops are always expressible")
    }

    #[test]
    fn identity_round_trip() {
        let d = text_delta(&[]);
        assert!(d.is_identity());
        let ops: Vec<TextOp> = d.into_ops();
        assert!(ops.is_empty());
    }

    #[test]
    fn from_ops_composes_into_base_coordinates() {
        // Sequential: insert "xy" at 2, then delete the base char now at 4.
        let d = text_delta(&[TextOp::insert(2, "xy"), TextOp::delete(4, 1)]);
        assert_eq!(
            d.spans(),
            &[
                Span::Retain(2),
                Span::Insert {
                    payload: "xy".to_string(),
                    len: 2
                },
                Span::Delete(1),
            ]
        );
    }

    #[test]
    fn insert_then_full_delete_annihilates() {
        let d = text_delta(&[TextOp::insert(3, "oops"), TextOp::delete(3, 4)]);
        assert!(d.is_identity());
    }

    #[test]
    fn gap_start_factorings_share_a_normal_form() {
        // "Delete at 2, insert at 2" and "insert at 2, delete what is now
        // at 3" both anchor the new run at the start of the deleted gap:
        // one normal form, insert before delete.
        let a = text_delta(&[TextOp::delete(2, 1), TextOp::insert(2, "z")]);
        let b = text_delta(&[TextOp::insert(2, "z"), TextOp::delete(3, 1)]);
        assert_eq!(a, b);
        assert_eq!(
            a.spans(),
            &[
                Span::Retain(2),
                Span::Insert {
                    payload: "z".to_string(),
                    len: 1
                },
                Span::Delete(1),
            ]
        );
    }

    #[test]
    fn gap_end_factoring_is_kept_distinct() {
        // "Insert after the doomed unit, then delete it" produces the same
        // document as the gap-start factorings but transforms differently
        // against concurrent gap inserts, so its delta must stay distinct —
        // delete before insert — and round-trip through into_ops.
        let f2 = text_delta(&[TextOp::insert(3, "z"), TextOp::delete(2, 1)]);
        assert_eq!(
            f2.spans(),
            &[
                Span::Retain(2),
                Span::Delete(1),
                Span::Insert {
                    payload: "z".to_string(),
                    len: 1
                },
            ]
        );
        let f1 = text_delta(&[TextOp::delete(2, 1), TextOp::insert(2, "z")]);
        assert_ne!(f1, f2);
        let ops: Vec<TextOp> = f2.clone().into_ops();
        assert_eq!(text_delta(&ops), f2);
    }

    #[test]
    fn in_place_fold_matches_pairwise_compose() {
        // `compose_op` (the production fold step) must agree span-for-span
        // with the definitional route: compose against the singleton delta
        // of the same op. Randomized logs, both biases.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut rand = move |bound: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as usize) % bound.max(1)
        };
        for case in 0..2000 {
            let bias = if case % 2 == 0 {
                GapBias::Start
            } else {
                GapBias::End
            };
            let mut doc_len = 8 + rand(8);
            let mut ops: Vec<ListOp<u64>> = Vec::new();
            let mut by_compose = Delta::identity();
            for i in 0..(1 + rand(12)) {
                let op = if doc_len > 0 && rand(2) == 0 {
                    let pos = rand(doc_len);
                    doc_len -= 1;
                    ListOp::Delete(pos)
                } else {
                    let pos = rand(doc_len + 1);
                    doc_len += 1;
                    ListOp::Insert(pos, i as u64)
                };
                let span = op.to_span().unwrap();
                by_compose = by_compose.compose_biased(&Delta::from_op_span(span), bias);
                ops.push(op);
            }
            let in_place = from_ops_biased(&ops, bias).unwrap();
            assert_eq!(in_place, by_compose, "ops {ops:?} bias {bias:?}");
        }
    }

    #[test]
    fn split_off_keeps_the_head_and_returns_the_tail() {
        fn check<P: DeltaPayload>(run: P) {
            let len = run.unit_len();
            for at in 0..=len {
                let mut head = run.clone();
                let tail = head.split_off(at, len);
                assert_eq!(head, run.slice(0, at), "{run:?} at {at}");
                assert_eq!(tail, run.slice(at, len - at), "{run:?} at {at}");
            }
        }
        for text in ["abcde", "aé✨z", "éa✨✨b", "abcé", "éabc", ""] {
            check(text.to_string());
            // `split_off` walks from the nearer end; both walks must find
            // every cut.
            let len = text.chars().count();
            for at in 0..=len {
                let byte = text.char_indices().nth(at).map_or(text.len(), |(i, _)| i);
                assert_eq!(char_byte_from_front(text, at), byte, "{text:?} at {at}");
                assert_eq!(char_byte_from_back(text, at, len), byte, "{text:?} at {at}");
            }
        }
        check(vec![1u8, 2, 3, 4]);
        check(Vec::<u8>::new());
    }

    /// One raw span: kind (retain / delete / insert), length, first value.
    type RawSpan = (u8, usize, u8);

    fn raw_spans(max: usize) -> impl Strategy<Value = Vec<RawSpan>> {
        prop::collection::vec((0..3u8, 1..4usize, any::<u8>()), 0..max)
    }

    /// Normalize raw spans into a delta; insert payloads count up from the
    /// drawn value, so a mis-sliced run shows.
    fn delta_of(raw: &[RawSpan]) -> Delta<Vec<u8>> {
        let mut d = Delta::identity();
        for &(kind, len, v) in raw {
            d.push(match kind {
                0 => Span::Retain(len),
                1 => Span::Delete(len),
                _ => Span::Insert {
                    payload: (0..len).map(|i| v.wrapping_add(i as u8)).collect(),
                    len,
                },
            });
        }
        d.trim();
        d
    }

    fn bias_of(end: bool) -> GapBias {
        if end {
            GapBias::End
        } else {
            GapBias::Start
        }
    }

    proptest! {
        /// The shipped incoming-only sweep is the `right'` of the
        /// two-sided definition.
        #[test]
        fn incoming_only_sweep_matches_the_two_sided_transform(
            com in raw_spans(14),
            inc in raw_spans(14),
        ) {
            let (com, inc) = (delta_of(&com), delta_of(&inc));
            prop_assert_eq!(com.transform_incoming(&inc), com.transform(&inc).1);
        }

        /// In-place composition is the by-value definition, both biases.
        #[test]
        fn in_place_compose_matches_by_value_compose(
            acc in raw_spans(14),
            run in raw_spans(10),
            end in any::<bool>(),
        ) {
            let (acc, run, bias) = (delta_of(&acc), delta_of(&run), bias_of(end));
            let mut in_place = acc.clone();
            in_place.compose_from(Finger::default(), &run, bias);
            prop_assert_eq!(in_place, acc.compose_biased(&run, bias));
        }

        /// The same with the run's first edit landing exactly on a span
        /// boundary of the accumulator — next to its deletes and inserts,
        /// where cutting the untouched prefix one span too late would
        /// decide the adjacency order without the sweep.
        #[test]
        fn in_place_compose_matches_by_value_compose_at_span_boundaries(
            acc in raw_spans(14),
            boundary in any::<usize>(),
            run in raw_spans(10),
            end in any::<bool>(),
        ) {
            let (acc, bias) = (delta_of(&acc), bias_of(end));
            let boundary = boundary % (acc.span_count() + 1);
            let lead: usize = acc.spans()[..boundary]
                .iter()
                .map(|s| if matches!(s, Span::Delete(_)) { 0 } else { s.len() })
                .sum();
            // A leading retain up to the boundary, then an edit: `run`
            // with any retain of its own in front dropped.
            let edits = run.iter().skip_while(|(kind, ..)| *kind == 0);
            let at_boundary: Vec<RawSpan> =
                (lead > 0).then_some((0, lead, 0)).into_iter().chain(edits.copied()).collect();
            let run = delta_of(&at_boundary);
            let mut in_place = acc.clone();
            in_place.compose_from(Finger::default(), &run, bias);
            prop_assert_eq!(in_place, acc.compose_biased(&run, bias));
        }
    }

    /// Where `idx` lies in `delta`, measured from zero.
    fn finger_at(delta: &Delta<Vec<u8>>, idx: usize) -> Finger {
        let before = &delta.spans()[..idx];
        Finger {
            idx,
            base: before.iter().map(Span::base_len).sum(),
            out: before.iter().map(Span::out_len).sum(),
        }
    }

    /// Every finger a sweep against a delta whose first edit is at `lead`
    /// may start from: the start of `com`, and each boundary whose span
    /// ends strictly before `lead`. A superset of what
    /// [`Composite::seek`] settles on (it also waits for the *next* span
    /// to end there), so the sweeps are held to more than it asks.
    fn fingers(com: &Delta<Vec<u8>>, lead: usize) -> Vec<Finger> {
        let mut all = vec![Finger::default()];
        for idx in 1..com.span_count() {
            let f = finger_at(com, idx);
            if f.base + com.spans()[idx].base_len() >= lead {
                break;
            }
            all.push(f);
        }
        all
    }

    /// For `com` (committed) against `inc` (incoming): started at every
    /// finger, the transform and the compose (both biases) are their
    /// from-zero forms, which are the two-sided `transform` and the
    /// by-value `compose_biased`; `seek` is a function of the lead alone,
    /// however the finger got where it was; and an `absorb` is those two
    /// with a finger that still measures true afterwards.
    fn assert_every_finger_agrees(com: &Delta<Vec<u8>>, inc: &Delta<Vec<u8>>) {
        let what = || format!("com {com:?} inc {inc:?}");
        let rebased = com.transform_incoming(inc);
        assert_eq!(rebased, com.transform(inc).1, "{}", what());
        let composed = [GapBias::Start, GapBias::End].map(|bias| {
            let mut in_place = com.clone();
            in_place.compose_from(Finger::default(), &rebased, bias);
            assert_eq!(in_place, com.compose_biased(&rebased, bias), "{}", what());
            (bias, in_place)
        });
        for f in fingers(com, inc.lead()) {
            assert_eq!(com.transform_from(f, inc), rebased, "{f:?} {}", what());
            for (bias, want) in &composed {
                let mut seeked = com.clone();
                seeked.compose_from(f, &rebased, *bias);
                assert_eq!(&seeked, want, "{f:?} {bias:?} {}", what());
            }
        }

        // One composite walked up to the lead and back down lands where a
        // fresh one does, on a finger valid for that lead.
        let mut walked = Composite::new(com.clone());
        for lead in (0..=inc.lead()).chain((0..inc.lead()).rev()) {
            let mut fresh = Composite::new(com.clone());
            fresh.seek(lead);
            walked.seek(lead);
            assert_eq!(walked.finger, fresh.finger, "lead {lead} {}", what());
            assert!(
                fingers(com, lead).contains(&fresh.finger),
                "lead {lead} {}",
                what()
            );
        }

        // Absorb with the finger left far behind the lead: it retreats.
        let mut composite = Composite::new(com.clone());
        composite.seek(usize::MAX);
        assert_eq!(composite.absorb(inc), rebased, "{}", what());
        assert_eq!(composite.delta, composed[0].1, "{}", what());
        let f = composite.finger;
        assert_eq!(f, finger_at(&composite.delta, f.idx), "{}", what());
    }

    /// A delta with `lead` base units retained before `edits`.
    fn delta_behind(lead: usize, edits: &[RawSpan]) -> Delta<Vec<u8>> {
        let spans: Vec<RawSpan> = std::iter::once((0, lead, 0))
            .chain(edits.iter().copied())
            .collect();
        delta_of(&spans)
    }

    proptest! {
        /// Random normalized pairs, the incoming side's first edit
        /// anywhere from the front of the committed delta to past its
        /// end: every finger agrees with the from-zero sweeps and the
        /// oracles.
        #[test]
        fn seeked_sweeps_match_the_from_zero_sweeps_and_the_oracles(
            com in raw_spans(14),
            lead in 0..44usize,
            inc in raw_spans(8),
        ) {
            assert_every_finger_agrees(&delta_of(&com), &delta_behind(lead, &inc));
        }

        /// A batch absorbed through one [`Composite`] — leads in any
        /// order, so the finger advances, rests and retreats, and runs
        /// coalesce into the span it rests on — is the from-zero kernel
        /// applied delta by delta, and the finger measures true after
        /// every one.
        #[test]
        fn a_composite_absorbs_a_batch_like_the_from_zero_kernel(
            com in raw_spans(8),
            batch in prop::collection::vec((0..40usize, raw_spans(5)), 1..10),
        ) {
            let mut want = delta_of(&com);
            let mut composite = Composite::new(want.clone());
            for (lead, edits) in &batch {
                let inc = delta_behind(*lead, edits);
                let rebased = want.transform_incoming(&inc);
                want = want.compose_biased(&rebased, GapBias::Start);
                prop_assert_eq!(composite.absorb(&inc), rebased);
                prop_assert_eq!(&composite.delta, &want);
                let f = composite.finger;
                prop_assert_eq!(f, finger_at(&composite.delta, f.idx));
            }
        }
    }

    /// Every log of at most `max_ops` single-element inserts and deletes
    /// over a `base_len`-element document; inserted values count up from
    /// `tag`.
    fn every_log(base_len: usize, max_ops: usize, tag: u8) -> Vec<Vec<ListOp<u8>>> {
        let mut all = vec![(Vec::new(), base_len)];
        let mut from = 0;
        for _ in 0..max_ops {
            let until = all.len();
            for i in from..until {
                let (log, len) = all[i].clone();
                let extended = |op| log.iter().cloned().chain([op]).collect::<Vec<_>>();
                for pos in 0..=len {
                    let op = ListOp::Insert(pos, tag + log.len() as u8);
                    all.push((extended(op), len + 1));
                }
                for pos in 0..len {
                    all.push((extended(ListOp::Delete(pos)), len - 1));
                }
            }
            from = until;
        }
        all.into_iter().map(|(log, _)| log).collect()
    }

    /// Small scope, exhaustively (the first slice of ROADMAP item 4):
    /// every pair of logs of at most three ops over a four-element base,
    /// each folded with its side's bias, from every finger.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a million log pairs: seconds in release, minutes with debug assertions"
    )]
    fn every_small_log_pair_agrees_from_every_finger() {
        let fold = |tag, bias| -> Vec<Delta<Vec<u8>>> {
            every_log(4, 3, tag)
                .iter()
                .map(|log| from_ops_biased(log, bias).expect("inserts and deletes are spans"))
                .collect()
        };
        let committed = fold(10, GapBias::Start);
        let incoming = fold(20, GapBias::End);
        assert_eq!(
            committed.len(),
            1 + 9 + 83 + 819,
            "the scope is what it says"
        );
        let mut seeked = 0usize;
        for com in &committed {
            for inc in &incoming {
                seeked += fingers(com, inc.lead()).len() - 1;
                assert_every_finger_agrees(com, inc);
            }
        }
        assert!(seeked > 0, "no pair in scope ever left the zero finger");
    }

    /// `ops` folded on the list path alone, from an empty list of
    /// `MAX`-span blocks, counting the seam cases met: `[delete over three
    /// or more blocks, delete that annihilates a whole block, gap-end
    /// insert at a block's last output position with a delete opening the
    /// next block]`. After every op no block overflows, only a sole block
    /// is empty, and the finger measures true.
    fn list_fold_census<O: DeltaOp, const MAX: usize>(
        ops: &[O],
        bias: GapBias,
        seen: &mut [usize; 3],
    ) -> Delta<O::Payload> {
        let mut list = SpanList::<_, MAX>::new(Delta::identity(), ops.len());
        let mut scratch = Vec::new();
        for op in ops {
            let op = op.to_span().unwrap();
            // Each block's output range, `[start, end)`.
            let mut start = 0;
            let ranges: Vec<(usize, usize)> = list
                .blocks
                .iter()
                .map(|b| {
                    start += b.out;
                    (start - b.out, start)
                })
                .collect();
            match &op {
                OpSpan::Delete { pos, len } => {
                    let reach = pos + len;
                    let touched = ranges.iter().filter(|&&(a, b)| b > *pos && a < reach);
                    seen[0] += usize::from(touched.count() >= 3);
                    seen[1] += usize::from(list.blocks.iter().zip(&ranges).any(|(b, &(a, e))| {
                        let inserts = b.spans.iter().all(|s| matches!(s, Span::Insert { .. }));
                        inserts && a >= *pos && e <= reach && a < e
                    }));
                }
                OpSpan::Insert { pos, .. } if bias == GapBias::End => {
                    seen[2] +=
                        usize::from(ranges.iter().zip(&list.blocks[1..]).any(|(r, next)| {
                            r.1 == *pos && matches!(next.spans.first(), Some(Span::Delete(_)))
                        }));
                }
                OpSpan::Insert { .. } => {}
            }
            list.compose_op(op, bias, &mut scratch);
            let mut before = 0;
            for (i, block) in list.blocks.iter().enumerate() {
                assert!(block.spans.len() <= MAX, "block {i} overfull");
                assert!(!block.spans.is_empty() || list.blocks.len() == 1);
                if i == list.finger.0 {
                    assert_eq!(list.finger.1, before, "the finger measures true");
                }
                before += block.out;
            }
        }
        list.into_delta()
    }

    /// The counted fold at one- and two-span blocks, where almost every
    /// edit crosses a seam, and at the shipped bound, and its list path
    /// alone: each equals the straight fold span for span.
    fn assert_counted_fold_is_straight<O: DeltaOp>(
        ops: &[O],
        bias: GapBias,
        seen: &mut [usize; 3],
    ) {
        let straight = from_ops_biased(ops, bias).unwrap();
        let folds = [
            counted_fold::<O, 1>(ops, bias).unwrap(),
            counted_fold::<O, 2>(ops, bias).unwrap(),
            from_ops_counted(ops, bias).unwrap(),
            list_fold_census::<O, 1>(ops, bias, seen),
            list_fold_census::<O, 2>(ops, bias, seen),
        ];
        for (i, folded) in folds.iter().enumerate() {
            assert_eq!(folded, &straight, "fold {i}, ops {ops:?} bias {bias:?}");
        }
    }

    #[test]
    fn counted_fold_equals_the_straight_fold_on_every_small_log() {
        let mut seen = [0; 3];
        for log in every_log(4, 3, 10) {
            for bias in [GapBias::Start, GapBias::End] {
                assert_counted_fold_is_straight(&log, bias, &mut seen);
            }
        }
        // A one-unit delete touches one block at most.
        assert!(seen[1] > 0 && seen[2] > 0, "seam cases met: {seen:?}");
    }

    #[test]
    fn counted_fold_equals_the_straight_fold_on_long_random_logs() {
        let mut x: u64 = 0x51_7cc1_b727_220a;
        let mut rand = move |bound: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as usize) % bound.max(1)
        };
        let mut seen = [0; 3];
        for case in 0..27 {
            let ops = [1, 2, 3, 9, 40, 300, 1_000, 4_096, 16_384][case % 9];
            let bias = bias_of(case / 9 == 1);
            // Text over a multi-byte alphabet: 1-3-char inserts, 1-2-char
            // deletes three to one, a long delete now and then; positions
            // anywhere, near the last edit, or ascending.
            let (mut len, mut last) = (64 + rand(64), 0);
            let mut text = Vec::new();
            for _ in 0..ops {
                let pos = match rand(3) {
                    0 => rand(len + 1),
                    1 => (last + rand(5)).saturating_sub(2).min(len),
                    _ => (last + rand(3)).min(len),
                };
                if rand(4) == 0 && pos < len {
                    let n = if rand(8) == 0 {
                        1 + rand(40)
                    } else {
                        1 + rand(2)
                    };
                    let n = n.min(len - pos);
                    text.push(TextOp::delete(pos, n));
                    len -= n;
                } else {
                    let run: String = (0..1 + rand(3))
                        .map(|_| ['a', 'é', '✨', 'z'][rand(4)])
                        .collect();
                    len += run.chars().count();
                    text.push(TextOp::insert(pos, run));
                }
                last = pos;
            }
            assert_counted_fold_is_straight(&text, bias, &mut seen);
            // Lists: point and run forms.
            let (mut len, mut last) = (64 + rand(64), 0);
            let mut list: Vec<ListOp<u32>> = Vec::new();
            for i in 0..ops as u32 {
                let pos = if rand(2) == 0 {
                    rand(len + 1)
                } else {
                    (last + rand(3)).min(len)
                };
                list.push(match rand(6) {
                    0 | 1 if pos < len => {
                        len -= 1;
                        ListOp::Delete(pos)
                    }
                    2 if pos < len => {
                        let n = (1 + rand(24)).min(len - pos);
                        len -= n;
                        ListOp::DeleteRange(pos, n)
                    }
                    3 => {
                        let n = 1 + rand(3);
                        len += n;
                        ListOp::InsertRun(pos, (0..n as u32).map(|j| i * 4 + j).collect())
                    }
                    _ => {
                        len += 1;
                        ListOp::Insert(pos, i * 4)
                    }
                });
                last = pos;
            }
            assert_counted_fold_is_straight(&list, bias, &mut seen);
        }
        assert!(seen.iter().all(|&n| n > 0), "seam cases met: {seen:?}");
    }

    #[test]
    fn collapsed_gap_factorings_split_the_grid_but_merge_alike() {
        // Committed: delete b and c, insert "XY" where c was (gap end).
        // Incoming: insert "q" where b was, and also delete c. Under the
        // grid, where "q" lands against "XY" depends on the *incoming
        // log's* internal order: `[del c, ins q]` ties with the committed
        // insert (c already collapsed) and is displaced after it, while
        // `[ins q, del c]` is walked with c still alive and stays before
        // it. Both fold to one delta, so the delta path merges them
        // alike, by position: "q" first.
        let committed = vec![
            TextOp::delete(1, 1),
            TextOp::insert(2, "XY"),
            TextOp::delete(1, 1),
        ];
        let incoming = vec![TextOp::delete(2, 1), TextOp::insert(1, "q")];
        let alternate = vec![TextOp::insert(1, "q"), TextOp::delete(3, 1)];
        assert_eq!(text_delta(&incoming), text_delta(&alternate));
        assert_ne!(
            seq::rebase(&incoming, &committed),
            seq::rebase(&alternate, &committed)
        );
        let merged = |incoming: &[TextOp]| {
            let mut doc = crate::state::Rope::from("abcd");
            apply_all(&mut doc, &committed).unwrap();
            let (rebased, _) = rebase_delta(incoming, &committed).unwrap();
            apply_all(&mut doc, &rebased).unwrap();
            doc.to_string()
        };
        assert_eq!(merged(&incoming), "aqXYd");
        assert_eq!(merged(&alternate), "aqXYd");
    }

    #[test]
    fn transform_matches_pairwise_tie_bias() {
        // Committed (left) and incoming (right) insert at the same point:
        // left lands first, right is displaced after it.
        let com = text_delta(&[TextOp::insert(3, "LL")]);
        let inc = text_delta(&[TextOp::insert(3, "R")]);
        let ops: Vec<TextOp> = com.transform_incoming(&inc).into_ops();
        assert_eq!(ops, vec![TextOp::insert(5, "R")]);
    }

    #[test]
    fn transform_splits_delete_around_concurrent_insert() {
        let com = text_delta(&[TextOp::insert(5, "XY")]);
        let inc = text_delta(&[TextOp::delete(3, 5)]);
        let ops: Vec<TextOp> = com.transform_incoming(&inc).into_ops();
        assert_eq!(ops, vec![TextOp::delete(3, 2), TextOp::delete(5, 3)]);
    }

    #[test]
    fn overlapping_deletes_vanish_once() {
        let com = text_delta(&[TextOp::delete(2, 4)]);
        let inc = text_delta(&[TextOp::delete(4, 4)]);
        let (com_t, inc_t) = com.transform(&inc);
        let c: Vec<TextOp> = com_t.into_ops();
        let i: Vec<TextOp> = inc_t.into_ops();
        assert_eq!(c, vec![TextOp::delete(2, 2)]);
        assert_eq!(i, vec![TextOp::delete(2, 2)]);
    }

    #[test]
    fn rebase_delta_agrees_with_grid_on_the_paper_example() {
        let committed = vec![ListOp::Insert(0, 'd')];
        let incoming = vec![ListOp::Delete(2)];
        let (rebased, stats) = rebase_delta(&incoming, &committed).unwrap();
        assert_eq!(rebased, seq::rebase(&incoming, &committed));
        assert_eq!(rebased, vec![ListOp::Delete(3)]);
        assert_eq!(stats.incoming_spans, 2);
        assert_eq!(stats.committed_spans, 1);
    }

    #[test]
    fn set_falls_back_to_the_grid() {
        let committed = vec![ListOp::Insert(0, 1u8)];
        let incoming = vec![ListOp::Set(0, 9u8)];
        assert!(rebase_delta(&incoming, &committed).is_none());
        assert!(from_ops(&incoming).is_none());
    }

    #[test]
    fn noop_span_ops_normalize_away() {
        let d = from_ops(&[
            ListOp::InsertRun(1, Vec::<u8>::new()),
            ListOp::DeleteRange(2, 0),
        ])
        .unwrap();
        assert!(d.is_identity());
    }

    #[test]
    fn scattered_rebase_equals_grid_on_state() {
        // Deterministic scattered inserts on both sides; the delta result
        // must produce the same state as the grid oracle.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut pos = |bound: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as usize) % bound
        };
        let committed: Vec<ListOp<u64>> = (0..40).map(|i| ListOp::Insert(pos(32), i)).collect();
        let incoming: Vec<ListOp<u64>> =
            (0..40).map(|i| ListOp::Insert(pos(32), 100 + i)).collect();

        let grid = seq::rebase(&incoming, &committed);
        let (delta, _) = rebase_delta(&incoming, &committed).unwrap();

        let base: crate::state::ChunkTree<u64> = (0..32).collect();
        let mut via_grid = base.clone();
        apply_all(&mut via_grid, &committed).unwrap();
        apply_all(&mut via_grid, &grid).unwrap();
        let mut via_delta = base;
        apply_all(&mut via_delta, &committed).unwrap();
        apply_all(&mut via_delta, &delta).unwrap();
        assert_eq!(via_grid, via_delta);
        // And the logs agree up to delta normal form.
        assert_eq!(from_ops(&grid).unwrap(), from_ops(&delta).unwrap());
    }

    #[test]
    fn into_ops_uses_span_forms_for_runs() {
        let d = from_ops(&[
            ListOp::Insert(0, 1u8),
            ListOp::Insert(1, 2u8),
            ListOp::Insert(2, 3u8),
        ])
        .unwrap();
        let ops: Vec<ListOp<u8>> = d.into_ops();
        assert_eq!(ops, vec![ListOp::InsertRun(0, vec![1, 2, 3])]);
    }
}
