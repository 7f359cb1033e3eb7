//! [`Persist`]: mergeable structures whose state and operation logs can
//! be serialized — the codec layer shared by distributed children
//! (`spawn_merge::dist` ships a child's state to a node and the node's
//! log back) and the durable store (sm-store journals committed logs and
//! snapshots states).
//!
//! Three views of the same structure cross the serialization boundary:
//!
//! - **state snapshot** ([`Persist::encode_state`] /
//!   [`Persist::decode_state`]) — the observable value, no log, no fork
//!   metadata;
//! - **whole log** ([`Persist::encode_log`] / [`Persist::apply_log`]) —
//!   every locally recorded operation, span-compacted on the way out;
//! - **committed slice** ([`Persist::encode_committed_since`]) — the
//!   operations appended to the log between two history marks (as
//!   reported by [`Mergeable::history_marks`]), which is exactly what a
//!   merge-commit journal appends per commit. The slice is encoded in the
//!   same wire shape as a whole log, so [`Persist::apply_log`] replays
//!   journaled slices through the normal OT apply path.
//!
//! A log in that wire shape goes back in two ways: [`Persist::apply_log`]
//! applies and records it here (a mirror, a replica, a recovery), and
//! [`Persist::merge_log`] merges it into a head as a child forked at a
//! given base would merge — checked against the base's state
//! ([`sm_ot::Operation::check_run`]), without building that child
//! (a session commit).
//!
//! Journaling is only sound if persisted operations are immutable, but
//! [`Versioned`] opportunistically fuses new records
//! into its log *tail* in place. [`Persist::seal_history`] closes that
//! hole: it raises the fuse barrier over every contained log, after
//! which the current history prefix can never be rewritten. A journal
//! seals before it reads.

use bytes::{Buf, Bytes, BytesMut};
use sm_codec::{Decode, DecodeError, Encode};
use sm_ot::list::{Element, ListOp};
use sm_ot::state::ChunkTree;
use sm_ot::tree::Node;
use sm_ot::Operation;

use crate::{
    Leaf, MCounter, MCounterMap, MList, MMap, MQueue, MRegister, MSet, MText, MTree, MergeError,
    MergeStats, Mergeable, Versioned,
};

use std::fmt;

/// Error replaying a serialized operation log onto a structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The bytes do not decode as operations of the expected algebra.
    Decode(DecodeError),
    /// A decoded operation failed to apply to the current state.
    Apply(String),
    /// Composite structures disagree in shape (e.g. `Vec<M>` length
    /// drift between encoder and decoder).
    Shape(String),
    /// The decoded log applies, but merging it failed
    /// ([`Persist::merge_log`]).
    Merge(MergeError),
    /// Replay applied a different number of operations than the journal
    /// frame declared, or left trailing bytes: frame/payload drift.
    Count {
        /// Operations actually applied.
        applied: usize,
        /// Operation count the frame declared.
        expected: u64,
        /// Undecoded bytes left after the last operation.
        trailing: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Decode(e) => write!(f, "log decode failed: {e}"),
            ReplayError::Apply(e) => write!(f, "replayed operation failed to apply: {e}"),
            ReplayError::Shape(e) => write!(f, "shape mismatch: {e}"),
            ReplayError::Merge(e) => write!(f, "{e}"),
            // Phrased to read after a journal's "commit {seq} " prefix.
            ReplayError::Count {
                applied,
                expected,
                trailing,
            } => write!(
                f,
                "replayed {applied} of {expected} ops with {trailing} trailing bytes"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<DecodeError> for ReplayError {
    fn from(e: DecodeError) -> Self {
        ReplayError::Decode(e)
    }
}

/// Error from [`Persist::replay_commits`]: which commit of the submitted
/// batch failed and why, so callers can map the index back to a journal
/// sequence number.
#[derive(Debug)]
pub struct PreparedReplayError {
    /// Position of the failing commit in the submitted batch.
    pub index: usize,
    /// The underlying replay failure.
    pub error: ReplayError,
}

/// One commit of [`replay_each`].
fn replay_commit<D: Persist>(
    data: &mut D,
    mut buf: Bytes,
    expected: u64,
) -> Result<usize, ReplayError> {
    let applied = data.apply_log(&mut buf)?;
    if applied as u64 != expected || buf.has_remaining() {
        return Err(ReplayError::Count {
            applied,
            expected,
            trailing: buf.remaining(),
        });
    }
    // The original run sealed its history at every commit; the replayed
    // structure carries the same fuse barriers. They also keep replay
    // linear: without them tail fusion rebuilds one ever-growing span op
    // on every operation.
    data.seal_history();
    Ok(applied)
}

/// [`Persist::replay_commits`]'s default and the reference every
/// override must match in state and error: per commit in turn,
/// [`Persist::apply_log`], the check that it applied the declared number
/// of operations and consumed every byte, then [`Persist::seal_history`].
pub fn replay_each<D: Persist>(
    data: &mut D,
    commits: Vec<(Bytes, u64)>,
) -> Result<usize, PreparedReplayError> {
    let mut total = 0;
    for (index, (buf, expected)) in commits.into_iter().enumerate() {
        total += replay_commit(data, buf, expected)
            .map_err(|error| PreparedReplayError { index, error })?;
    }
    Ok(total)
}

/// A mergeable structure whose state and operation log can be serialized.
pub trait Persist: Mergeable {
    /// Encode a snapshot of the current state (no log, no fork metadata).
    fn encode_state(&self, buf: &mut BytesMut);

    /// Decode a snapshot into a fresh instance with an empty log.
    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError>;

    /// Encode the locally recorded operation log: the committed slice
    /// since the start of history ([`Persist::encode_committed_since`]
    /// with no marks, each of which reads as 0).
    fn encode_log(&self, buf: &mut BytesMut) {
        self.encode_committed_since(&[], &mut 0, buf);
    }

    /// Decode an operation log and apply + record it here. Returns the
    /// number of operations applied.
    fn apply_log(&mut self, buf: &mut Bytes) -> Result<usize, ReplayError>;

    /// Merge a log into `self` the way `self.merge(&work)` would, where
    /// `work` is `base.clone()` after [`Persist::apply_log`] of `buf` —
    /// without building `work`. `base` is the fork the log was made
    /// against: every leaf decodes its operations, checks that they apply
    /// to `base`'s state ([`sm_ot::Operation::check_run`]) and merges
    /// them from `base`'s fork point ([`Versioned::merge_run`]).
    /// Composites walk their fields in [`Persist::apply_log`] order, so
    /// `buf` is the wire shape `apply_log` reads.
    ///
    /// # Errors
    /// [`ReplayError::Merge`] when a merge failed; any other error when a
    /// field's log does not decode or apply to `base`. A leaf fails
    /// before it touches `self`; a composite may fail in a later field
    /// after earlier fields merged, so a caller that must leave `self`
    /// untouched rolls it back ([`Mergeable::rollback_to`]) on any
    /// error.
    fn merge_log(&mut self, base: &Self, buf: &mut Bytes) -> Result<MergeStats, ReplayError>;

    /// Raise the fuse barrier of every contained log to its current
    /// history length, making the present history prefix append-only
    /// (later records can no longer fuse into it). Called by journals
    /// immediately before reading log contents they intend to persist.
    fn seal_history(&self);

    /// Encode, per contained log (in [`Mergeable::history_marks`]
    /// traversal order, consuming one entry of `marks` per log via
    /// `cursor`), the operations from absolute history position
    /// `marks[i]` to the present — the slice committed since the marks
    /// were captured. Each slice is span-compacted and wire-compatible
    /// with [`Persist::apply_log`]. Returns the total operation count
    /// encoded.
    ///
    /// Callers must have [sealed](Persist::seal_history) the history at
    /// the time `marks` was captured and must not have truncated past
    /// any mark; both are guaranteed by the journaling protocol (seal +
    /// capture at every commit, GC watermark ≤ last commit).
    fn encode_committed_since(
        &self,
        marks: &[usize],
        cursor: &mut usize,
        buf: &mut BytesMut,
    ) -> usize;

    /// Replay journaled commits in order. Each is a committed slice
    /// (wire-compatible with [`Persist::apply_log`]) with the operation
    /// count its journal frame declared; each is applied, checked against
    /// that count and sealed ([`replay_each`]). Structures override this
    /// to amortize work across consecutive commits (the list replay
    /// session, which owns the state and records nothing into the log)
    /// with the same state and the same errors. On failure reports the
    /// index of the failing commit.
    fn replay_commits(&mut self, commits: Vec<(Bytes, u64)>) -> Result<usize, PreparedReplayError> {
        replay_each(self, commits)
    }
}

/// The slice of `v`'s log at absolute positions `marks[*cursor]..` (from
/// 0 when the mark is absent), span-compacted first, for
/// [`Persist::encode_committed_since`]: runs of fusible operations
/// (contiguous inserts, same-key puts, counter adds…) are serialized as
/// single span ops. Compaction is rebase- and apply-preserving, so
/// replay is identical in effect to shipping the raw log — only the
/// encoded size shrinks.
fn encode_committed_log<O>(
    v: &Versioned<O>,
    marks: &[usize],
    cursor: &mut usize,
    buf: &mut BytesMut,
) -> usize
where
    O: Operation + Encode,
{
    let from = marks.get(*cursor).copied().unwrap_or(0);
    *cursor += 1;
    let start = from.saturating_sub(v.log_start()).min(v.log().len());
    let ops = sm_ot::compose::compact_cow(&v.log()[start..]);
    sm_codec::put_varint(buf, ops.len() as u64);
    for op in ops.iter() {
        op.encode(buf);
    }
    ops.len()
}

/// The log half of [`Persist`] for a [`Leaf`].
macro_rules! persist_log_methods {
    () => {
        fn apply_log(&mut self, buf: &mut Bytes) -> Result<usize, ReplayError> {
            let ops: Vec<<Self as Leaf>::Op> = Vec::decode(buf)?;
            let n = ops.len();
            for op in ops {
                self.apply_op(op)
                    .map_err(|e| ReplayError::Apply(e.to_string()))?;
            }
            Ok(n)
        }

        fn merge_log(&mut self, base: &Self, buf: &mut Bytes) -> Result<MergeStats, ReplayError> {
            let ops: Vec<<Self as Leaf>::Op> = Vec::decode(buf)?;
            self.versioned_mut().merge_run(base.versioned(), ops)
        }

        fn seal_history(&self) {
            self.versioned().seal();
        }

        fn encode_committed_since(
            &self,
            marks: &[usize],
            cursor: &mut usize,
            buf: &mut BytesMut,
        ) -> usize {
            encode_committed_log(self.versioned(), marks, cursor, buf)
        }
    };
}

/// One journaled list commit, decoded once with the codec's own
/// `Vec::<ListOp<T>>::decode`: its operations, or the decode error
/// [`Persist::apply_log`] would report; the operation count the journal
/// frame declared; and the bytes left behind the operations. Built by
/// [`MList::decode_log_prepared`], applied by `ListReplaySession`.
pub struct ListPreparedLog<T: Element> {
    ops: Result<Vec<ListOp<T>>, DecodeError>,
    expected: u64,
    trailing: usize,
}

impl<T: Element + Decode> MList<T> {
    /// The decode step of every commit the list replay
    /// ([`Persist::replay_commits`] for `MList` and `MQueue`) applies.
    /// Nothing is checked here: the replay applies the operations, then
    /// checks them against `expected_ops` and the trailing bytes, in
    /// [`replay_each`]'s order.
    pub fn decode_log_prepared(mut buf: Bytes, expected_ops: u64) -> ListPreparedLog<T> {
        let ops = Vec::decode(&mut buf);
        ListPreparedLog {
            ops,
            expected: expected_ops,
            trailing: buf.remaining(),
        }
    }
}

/// Replays consecutive list commits over a split representation: an
/// untouched chunk-tree prefix plus a plain `Vec` tail covering everything
/// the planned commits touch. Trailing-window workloads (appends, queue
/// churn) then amortize — each insert-only commit is one slot plan +
/// window rewrite on the tail, with no tree rebuild until
/// [`ListReplaySession::take_tree`]. Every other commit (deletes, `Set`,
/// inserts scattered wider than the planner's window) applies op by op
/// to the tree, which the session owns outright (moved out of the
/// structure's `Versioned`, not shared with it), so no edit path-copies
/// a node.
struct ListReplaySession<T: Element> {
    /// Untouched prefix; the document is `tree ++ tail`.
    tree: ChunkTree<T>,
    tail: Vec<T>,
    /// Reused slot-plan state (free-slot index + mark buffer).
    planner: sm_ot::list::InsertPlanner,
    /// Reused copy of the pre-batch window, freeing `tail` to receive
    /// the assembled result in place.
    scratch: Vec<T>,
}

impl<T: Element> ListReplaySession<T> {
    fn new(tree: ChunkTree<T>) -> Self {
        ListReplaySession {
            tree,
            tail: Vec::new(),
            planner: sm_ot::list::InsertPlanner::new(),
            scratch: Vec::new(),
        }
    }

    /// Apply one decoded commit the way [`replay_commit`] applies it —
    /// decode error, then the operations in order, then the declared
    /// count and the trailing bytes — and return its op count.
    fn apply(&mut self, commit: ListPreparedLog<T>) -> Result<usize, ReplayError> {
        let ops = commit.ops?;
        if !self.plan(&ops) {
            self.flush();
            for op in &ops {
                op.apply(&mut self.tree)
                    .map_err(|e| ReplayError::Apply(e.to_string()))?;
            }
        }
        if ops.len() as u64 != commit.expected || commit.trailing != 0 {
            return Err(ReplayError::Count {
                applied: ops.len(),
                expected: commit.expected,
                trailing: commit.trailing,
            });
        }
        Ok(ops.len())
    }

    /// Apply `ops` through the planner if it can take them: insert-only,
    /// no empty run, every position in bounds at its turn, and the window
    /// from the least position to the end at most `16·k + 4096` for `k`
    /// inserted values. `false` leaves the session as it was.
    fn plan(&mut self, ops: &[ListOp<T>]) -> bool {
        let doc_len = self.tree.len() + self.tail.len();
        // The planner's `(position, values)` runs, borrowed from the ops;
        // `s` is the least position, `len` the length after each op.
        let mut runs = Vec::with_capacity(ops.len());
        let (mut s, mut len) = (doc_len, doc_len);
        for op in ops {
            let (at, vs) = match op {
                ListOp::Insert(at, v) => (*at, std::slice::from_ref(v)),
                ListOp::InsertRun(at, vs) if !vs.is_empty() => (*at, vs.as_slice()),
                _ => return false,
            };
            if at > len {
                return false;
            }
            s = s.min(at);
            len += vs.len();
            runs.push((at, vs));
        }
        let Some(&(_, first)) = runs.first() else {
            return true;
        };
        let window = doc_len - s;
        let m = len - s;
        let k = len - doc_len;
        if m >= u32::MAX as usize || window > 16 * k + 4096 {
            return false;
        }
        // Make the window tail-resident, then rewrite it in place.
        if s < self.tree.len() {
            let t = self.tree.len();
            let mut suffix = self.tree.range_to_vec(s, t - s);
            self.tree.remove_range(s, t - s);
            suffix.append(&mut self.tail);
            self.tail = suffix;
        }
        let off = s - self.tree.len();
        for run in &mut runs {
            run.0 -= s;
        }
        // Save the pre-batch window, then grow `tail` to the post-batch
        // length and let the fused plan+assemble overwrite every slot of
        // the window region in place.
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.tail[off..]);
        self.tail.resize(off + m, first[0].clone());
        self.planner
            .plan_assemble(&runs, &self.scratch, &mut self.tail[off..]);
        true
    }

    /// Fold the tail back into the tree.
    fn flush(&mut self) {
        if !self.tail.is_empty() {
            let tail = std::mem::take(&mut self.tail);
            if self.tree.is_empty() {
                // Replay-from-empty leaves the whole document in the
                // tail; bulk chunking beats a root splice.
                self.tree = ChunkTree::from_vec(tail);
            } else {
                let at = self.tree.len();
                self.tree.splice_vec(at, 0, tail);
            }
        }
    }

    /// The whole document, with the tail folded back in; the session is
    /// left empty.
    fn take_tree(&mut self) -> ChunkTree<T> {
        self.flush();
        std::mem::take(&mut self.tree)
    }

    /// Decode and apply `commits` in order on the session's document.
    fn replay_all(&mut self, commits: Vec<(Bytes, u64)>) -> Result<usize, PreparedReplayError>
    where
        T: Decode,
    {
        let mut total = 0;
        for (index, (buf, expected)) in commits.into_iter().enumerate() {
            total += self
                .apply(MList::<T>::decode_log_prepared(buf, expected))
                .map_err(|error| PreparedReplayError { index, error })?;
        }
        Ok(total)
    }
}

/// [`Persist::replay_commits`] for the list-shaped leaves: one
/// [`ListReplaySession`] takes `data`'s state over and replays every
/// commit. The state goes back to `data` on failure too, so a failed
/// batch leaves what [`replay_each`] leaves: the applied prefix plus the
/// failing commit's applied operations.
fn replay_list_commits<T, L>(
    data: &mut L,
    commits: Vec<(Bytes, u64)>,
) -> Result<usize, PreparedReplayError>
where
    T: Element + Decode,
    L: Leaf<Op = ListOp<T>> + Persist,
{
    let mut session = ListReplaySession::new(data.versioned_mut().take_state());
    let replayed = session.replay_all(commits);
    data.versioned_mut().set_state(session.take_tree());
    if replayed.is_ok() {
        data.seal_history();
    }
    replayed
}

impl<T> Persist for MList<T>
where
    T: sm_ot::list::Element + Encode + Decode,
{
    fn encode_state(&self, buf: &mut BytesMut) {
        self.to_vec().encode(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(MList::from_vec(Vec::decode(buf)?))
    }

    persist_log_methods!();

    fn replay_commits(&mut self, commits: Vec<(Bytes, u64)>) -> Result<usize, PreparedReplayError> {
        replay_list_commits(self, commits)
    }
}

impl<T> Persist for MQueue<T>
where
    T: sm_ot::list::Element + Encode + Decode,
{
    fn encode_state(&self, buf: &mut BytesMut) {
        self.to_vec().encode(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(MQueue::from_vec(Vec::decode(buf)?))
    }

    persist_log_methods!();

    fn replay_commits(&mut self, commits: Vec<(Bytes, u64)>) -> Result<usize, PreparedReplayError> {
        replay_list_commits(self, commits)
    }
}

impl Persist for MText {
    fn encode_state(&self, buf: &mut BytesMut) {
        self.to_string().encode(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(MText::from(String::decode(buf)?))
    }

    persist_log_methods!();
}

impl<K, V> Persist for MMap<K, V>
where
    K: sm_ot::map::Key + Encode + Decode,
    V: sm_ot::map::Value + Encode + Decode,
{
    fn encode_state(&self, buf: &mut BytesMut) {
        let entries: Vec<(K, V)> = self.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        entries.encode(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(MMap::from_entries(Vec::<(K, V)>::decode(buf)?))
    }

    persist_log_methods!();
}

impl<T> Persist for MSet<T>
where
    T: sm_ot::set::Element + Encode + Decode,
{
    fn encode_state(&self, buf: &mut BytesMut) {
        let items: Vec<T> = self.iter().cloned().collect();
        items.encode(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(MSet::from_items(Vec::<T>::decode(buf)?))
    }

    persist_log_methods!();
}

impl Persist for MCounter {
    fn encode_state(&self, buf: &mut BytesMut) {
        self.get().encode(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(MCounter::new(i64::decode(buf)?))
    }

    persist_log_methods!();
}

impl<T> Persist for MRegister<T>
where
    T: sm_ot::register::Value + Encode + Decode,
{
    fn encode_state(&self, buf: &mut BytesMut) {
        self.get().encode(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(MRegister::new(T::decode(buf)?))
    }

    persist_log_methods!();
}

impl<K> Persist for MCounterMap<K>
where
    K: sm_ot::cmap::Key + Encode + Decode,
{
    fn encode_state(&self, buf: &mut BytesMut) {
        let entries: Vec<(K, i64)> = self.iter().map(|(k, v)| (k.clone(), *v)).collect();
        entries.encode(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(MCounterMap::from_entries(Vec::<(K, i64)>::decode(buf)?))
    }

    persist_log_methods!();
}

impl<V> Persist for MTree<V>
where
    V: sm_ot::tree::Value + Encode + Decode,
{
    fn encode_state(&self, buf: &mut BytesMut) {
        self.root().encode(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(MTree::from_root(Node::decode(buf)?))
    }

    persist_log_methods!();
}

impl<M: Persist> Persist for Vec<M> {
    fn encode_state(&self, buf: &mut BytesMut) {
        sm_codec::put_varint(buf, self.len() as u64);
        for m in self {
            m.encode_state(buf);
        }
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        let len = sm_codec::get_varint(buf)?;
        // Every element encodes to at least one byte.
        if len > buf.remaining() as u64 {
            return Err(DecodeError::BadLength(len));
        }
        let mut v = Vec::with_capacity(len as usize);
        for _ in 0..len {
            v.push(M::decode_state(buf)?);
        }
        Ok(v)
    }

    fn apply_log(&mut self, buf: &mut Bytes) -> Result<usize, ReplayError> {
        let len = sm_codec::get_varint(buf)?;
        if len as usize != self.len() {
            return Err(ReplayError::Shape(format!(
                "log vector length {len} does not match state length {}",
                self.len()
            )));
        }
        let mut total = 0;
        for m in self.iter_mut() {
            total += m.apply_log(buf)?;
        }
        Ok(total)
    }

    fn merge_log(&mut self, base: &Self, buf: &mut Bytes) -> Result<MergeStats, ReplayError> {
        let len = sm_codec::get_varint(buf)?;
        if len as usize != base.len() {
            return Err(ReplayError::Shape(format!(
                "log vector length {len} does not match state length {}",
                base.len()
            )));
        }
        if self.len() != base.len() {
            return Err(ReplayError::Merge(MergeError::ShapeMismatch {
                detail: format!("Vec length {} vs child {}", self.len(), base.len()),
            }));
        }
        let mut stats = MergeStats::default();
        for (m, b) in self.iter_mut().zip(base) {
            stats += m.merge_log(b, buf)?;
        }
        Ok(stats)
    }

    fn seal_history(&self) {
        for m in self {
            m.seal_history();
        }
    }

    fn encode_committed_since(
        &self,
        marks: &[usize],
        cursor: &mut usize,
        buf: &mut BytesMut,
    ) -> usize {
        sm_codec::put_varint(buf, self.len() as u64);
        let mut total = 0;
        for m in self {
            total += m.encode_committed_since(marks, cursor, buf);
        }
        total
    }
}

macro_rules! impl_persist_tuple {
    ( $( $name:ident : $idx:tt ),+ ) => {
        impl<$( $name: Persist ),+> Persist for ( $( $name, )+ ) {
            fn encode_state(&self, buf: &mut BytesMut) {
                $( self.$idx.encode_state(buf); )+
            }

            fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
                Ok(( $( $name::decode_state(buf)?, )+ ))
            }

            fn apply_log(&mut self, buf: &mut Bytes) -> Result<usize, ReplayError> {
                let mut total = 0;
                $( total += self.$idx.apply_log(buf)?; )+
                Ok(total)
            }

            fn merge_log(&mut self, base: &Self, buf: &mut Bytes) -> Result<MergeStats, ReplayError> {
                let mut stats = MergeStats::default();
                $( stats += self.$idx.merge_log(&base.$idx, buf)?; )+
                Ok(stats)
            }

            fn seal_history(&self) {
                $( self.$idx.seal_history(); )+
            }

            fn encode_committed_since(
                &self,
                marks: &[usize],
                cursor: &mut usize,
                buf: &mut BytesMut,
            ) -> usize {
                let mut total = 0;
                $( total += self.$idx.encode_committed_since(marks, cursor, buf); )+
                total
            }
        }
    };
}
for_each_tuple_arity!(impl_persist_tuple);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_state<W: Persist + PartialEq + std::fmt::Debug>(w: &W) {
        let mut buf = BytesMut::new();
        w.encode_state(&mut buf);
        let mut bytes = buf.freeze();
        let back = W::decode_state(&mut bytes).expect("decode");
        assert!(bytes.is_empty(), "state decode must consume everything");
        assert_eq!(&back, w);
    }

    #[test]
    fn state_roundtrips() {
        roundtrip_state(&MList::from_iter([1u32, 2, 3]));
        roundtrip_state(&MQueue::from_iter(["a".to_string(), "b".to_string()]));
        roundtrip_state(&MText::from("héllo"));
        roundtrip_state(&MMap::from_entries([("k".to_string(), 7i64)]));
        roundtrip_state(&MSet::from_items([1u64, 5]));
        roundtrip_state(&MCounter::new(-3));
        roundtrip_state(&MRegister::new(true));
        roundtrip_state(&MCounterMap::from_entries([("w".to_string(), 2i64)]));
        roundtrip_state(&(MCounter::new(1), MText::from("x")));
        roundtrip_state(&vec![MCounter::new(1), MCounter::new(2)]);
    }

    #[test]
    fn tree_state_roundtrips() {
        let mut t = MTree::new(1u32);
        t.push_child(&[], Node::branch(2, vec![Node::leaf(3)]));
        roundtrip_state(&t);
    }

    #[test]
    fn log_ships_and_replays() {
        // Simulate the full remote round trip by hand: fork, ship state,
        // mutate remotely, ship log back, replay onto the shadow, merge.
        let mut coordinator = MList::from_iter([1u32, 2]);
        let shadow = coordinator.fork();

        // Ship the snapshot to the "remote node".
        let mut buf = BytesMut::new();
        shadow.encode_state(&mut buf);
        let mut remote = MList::<u32>::decode_state(&mut buf.freeze()).unwrap();

        // Remote work.
        remote.push(9);
        remote.remove(0);

        // Ship the log back and replay onto the shadow.
        let mut buf = BytesMut::new();
        remote.encode_log(&mut buf);
        let mut shadow = shadow;
        let n = shadow.apply_log(&mut buf.freeze()).unwrap();
        assert_eq!(n, 2);

        // Coordinator meanwhile worked too; merge resolves via OT.
        coordinator.push(5);
        coordinator.merge(&shadow).unwrap();
        assert_eq!(coordinator.to_vec(), vec![2, 5, 9]);
    }

    #[test]
    fn composite_log_roundtrip() {
        let base = (MCounterMap::<String>::new(), MText::new());
        let mut remote = base.clone();
        remote.0.add("w".to_string(), 3);
        remote.1.push_str("hi");
        let mut buf = BytesMut::new();
        remote.encode_log(&mut buf);

        let mut shadow = base.fork();
        let n = shadow.apply_log(&mut buf.freeze()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(shadow.0.get(&"w".to_string()), 3);
        assert_eq!(shadow.1, "hi");
    }

    #[test]
    fn wire_log_is_compacted() {
        // A fork point mid-log blocks in-place tail fusion (the barrier
        // keeps fork bases addressable), so the remote's log holds more
        // ops than necessary. The wire encoding compacts anyway: the
        // whole log is shipped, never sliced, so spans may cross the
        // fork point on the wire.
        let base = MList::from_iter([9u32]);
        let mut remote = base.fork();
        remote.push(1);
        let _pin = remote.fork();
        remote.push(2);
        remote.push(3);
        assert!(remote.pending_ops() >= 2, "fork point blocked fusion");

        let mut buf = BytesMut::new();
        remote.encode_log(&mut buf);
        let mut bytes = buf.freeze();
        let ops: Vec<sm_ot::list::ListOp<u32>> = Vec::decode(&mut bytes).unwrap();
        assert_eq!(
            ops,
            vec![sm_ot::list::ListOp::InsertRun(1, vec![1, 2, 3])],
            "contiguous appends cross the wire as one span"
        );

        // Replaying the compacted log yields the same state as the raw one.
        let mut buf = BytesMut::new();
        remote.encode_log(&mut buf);
        let mut shadow = base.fork();
        shadow.apply_log(&mut buf.freeze()).unwrap();
        assert_eq!(shadow.to_vec(), remote.to_vec());
    }

    #[test]
    fn vec_log_shape_mismatch_detected() {
        let remote = vec![MCounter::new(0), MCounter::new(0)];
        let mut buf = BytesMut::new();
        remote.encode_log(&mut buf);
        let mut wrong_shape = vec![MCounter::new(0)];
        assert!(matches!(
            wrong_shape.apply_log(&mut buf.freeze()),
            Err(ReplayError::Shape(_))
        ));
    }

    #[test]
    fn vec_state_length_prefix_is_bounded_by_the_bytes_behind_it() {
        // 1 000 000 as a varint and nothing behind it: refused before any
        // element is reserved, not after a million of them were.
        let mut hostile = Bytes::copy_from_slice(&[0xC0, 0x84, 0x3D]);
        assert_eq!(
            Vec::<MCounter>::decode_state(&mut hostile).unwrap_err(),
            DecodeError::BadLength(1_000_000)
        );
        roundtrip_state(&Vec::<MCounter>::new());
    }

    /// Journal a commit of `data` (every field edited by `edit`) and ship
    /// its state: both must land on `data` itself.
    fn journal_and_state_roundtrip<W>(mut data: W, logs: usize, edit: impl Fn(&mut W))
    where
        W: Persist + PartialEq + std::fmt::Debug,
    {
        let base = data.clone();
        data.seal_history();
        let mut marks = Vec::new();
        data.history_marks(&mut marks);
        assert_eq!(marks.len(), logs);

        edit(&mut data);
        data.seal_history();
        let (mut slice, mut cursor) = (BytesMut::new(), 0);
        let n = data.encode_committed_since(&marks, &mut cursor, &mut slice);
        assert_eq!((n, cursor), (logs, logs), "one op and one mark per field");
        let mut replica = base.clone();
        let mut slice = slice.freeze();
        assert_eq!(replica.apply_log(&mut slice), Ok(n));
        assert!(slice.is_empty());
        assert_eq!(replica, data);
        roundtrip_state(&data);
    }

    #[test]
    fn five_and_eight_tuples_journal_and_ship_like_smaller_ones() {
        let c = || MCounter::new(0);
        journal_and_state_roundtrip(
            (c(), MText::from("a"), c(), MList::from_iter([1u32]), c()),
            5,
            |d| {
                d.0.add(1);
                d.1.push_str("b");
                d.2.add(3);
                d.3.push(2);
                d.4.add(5);
            },
        );
        journal_and_state_roundtrip(
            (
                c(),
                c(),
                c(),
                c(),
                c(),
                c(),
                MText::new(),
                MRegister::new(0u8),
            ),
            8,
            |d| {
                for (i, counter) in [&mut d.0, &mut d.1, &mut d.2, &mut d.3, &mut d.4, &mut d.5]
                    .into_iter()
                    .enumerate()
                {
                    counter.add(i as i64 + 1);
                }
                d.6.push_str("seventh");
                d.7.set(8);
            },
        );
    }

    /// `ops` as one journaled commit: the committed-slice wire shape and
    /// the op count its frame declares.
    fn commit(ops: &[ListOp<u32>]) -> (Bytes, u64) {
        let mut buf = BytesMut::new();
        ops.to_vec().encode(&mut buf);
        (buf.freeze(), ops.len() as u64)
    }

    #[test]
    fn a_failed_list_replay_leaves_what_the_plain_replay_leaves() {
        use ListOp::{Delete, Insert, InsertRun, Set};
        let far = 1_000_000;
        let (valid, count) = commit(&[Insert(4990, 9)]);
        let kinds = [
            // Insert-only near the end: the planner takes it.
            commit(&[Insert(4990, 100), InsertRun(4991, vec![101, 102])]),
            // Insert-only, but an insert at 0 on 5 000 elements is wider
            // than the planner's window (16·k + 4096).
            commit(&[Insert(0, 200), Insert(4990, 201)]),
            commit(&[Insert(5, 300), Delete(0)]),
            commit(&[Set(2, 400)]),
            commit(&[Insert(4990, 500), InsertRun(3, vec![])]),
            commit(&[Insert(4990, 510), InsertRun(far, vec![])]),
            // Out of bounds first, then second.
            commit(&[Insert(far, 600), Insert(4990, 601)]),
            commit(&[Insert(4990, 700), Insert(far, 701)]),
            // Undecodable: the encoding cut one byte short.
            (Bytes::copy_from_slice(&valid[..valid.len() - 1]), count),
            (valid.clone(), count + 1),
            (Bytes::from([&valid[..], &[0]].concat()), count),
        ];
        let base = || MList::from_iter(0u32..5000);
        let mut cases = 0;
        for n in 0..=3u32 {
            for code in 0..kinds.len().pow(n) {
                let commits: Vec<_> = (0..n)
                    .map(|i| kinds[code / kinds.len().pow(i) % kinds.len()].clone())
                    .collect();
                let mut plain = base();
                let want = replay_each(&mut plain, commits.clone()).map_err(|e| (e.index, e.error));
                let mut batch = base();
                let got = batch
                    .replay_commits(commits)
                    .map_err(|e| (e.index, e.error));
                assert_eq!(got, want, "commits {n}, code {code}");
                assert_eq!(batch.to_vec(), plain.to_vec(), "commits {n}, code {code}");
                cases += 1;
            }
        }
        println!("{cases} commit sequences");
        assert_eq!(cases, 1 + 11 + 11 * 11 + 11 * 11 * 11);
    }

    #[test]
    fn committed_since_exports_exactly_the_slice_between_marks() {
        let mut data = (MList::<u32>::new(), MText::new());
        data.0.push(1);
        data.1.push_str("a");

        // A journal seals, then captures marks.
        data.seal_history();
        let mut marks = Vec::new();
        data.history_marks(&mut marks);

        // Work committed after the marks.
        data.0.push(2);
        data.0.push(3);
        data.1.push_str("bc");

        data.seal_history();
        let mut buf = BytesMut::new();
        let mut cursor = 0;
        let n = data.encode_committed_since(&marks, &mut cursor, &mut buf);
        assert_eq!(cursor, 2, "one mark consumed per contained log");
        assert_eq!(n, 2, "two spans: one list run, one text insert");

        // Replaying the slice on top of the state-at-marks reproduces the
        // current state.
        let mut replayed = (MList::from_vec(vec![1u32]), MText::from("a"));
        let applied = replayed.apply_log(&mut buf.freeze()).unwrap();
        assert_eq!(applied, n);
        assert_eq!(replayed.0.to_vec(), data.0.to_vec());
        assert_eq!(replayed.1.to_string(), data.1.to_string());
    }

    #[test]
    fn committed_since_is_stable_under_prefix_truncation() {
        // Truncating GC below the mark must not change what is exported:
        // positions are absolute via log_start.
        let mut a = MList::<u32>::new();
        a.push(1);
        a.push(2);
        a.seal_history();
        let mut marks = Vec::new();
        a.history_marks(&mut marks);

        let mut b = a.clone();
        a.push(7);
        b.push(7);
        // GC everything below the mark on one copy only.
        let dropped = b.truncate_history(&marks, &mut 0);
        assert!(dropped > 0);

        let (mut buf_a, mut buf_b) = (BytesMut::new(), BytesMut::new());
        let na = a.encode_committed_since(&marks, &mut 0, &mut buf_a);
        let nb = b.encode_committed_since(&marks, &mut 0, &mut buf_b);
        assert_eq!(na, nb);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn seal_history_makes_exported_slices_immutable() {
        // Without a seal, the next push would fuse into the log tail and
        // rewrite an operation a journal had already persisted. With the
        // seal, the persisted slice stays frozen and the next slice holds
        // the new operation.
        let mut data = MList::<u32>::new();
        data.push(1);

        data.seal_history();
        let mut marks0 = Vec::new();
        data.history_marks(&mut marks0);
        let mut first = BytesMut::new();
        data.encode_committed_since(&[0], &mut 0, &mut first);
        let first = first.freeze();

        data.push(2); // would fuse into Insert(0,1) without the seal

        // Re-exporting the original slice yields identical bytes.
        let mut again = BytesMut::new();
        data.encode_committed_since(&[0], &mut 0, &mut again);
        // The re-export covers the *whole* log (mark 0), so compare the
        // sealed prefix instead: exporting from the sealed mark must
        // contain exactly the post-seal operation.
        let mut suffix = BytesMut::new();
        let n = data.encode_committed_since(&marks0, &mut 0, &mut suffix);
        assert_eq!(n, 1, "post-seal slice holds only the new op");
        let mut replay = MList::from_vec(vec![1u32]);
        replay.apply_log(&mut suffix.freeze()).unwrap();
        assert_eq!(replay.to_vec(), vec![1, 2]);

        // And replaying slice 0 alone reproduces the pre-seal state.
        let mut replay0 = MList::<u32>::new();
        replay0.apply_log(&mut first.clone()).unwrap();
        assert_eq!(replay0.to_vec(), vec![1]);
        let _ = again;
    }
}
