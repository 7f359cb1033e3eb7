//! OT algebra for **lists** — the paper's running example data structure
//! (`ins(0,obj)`, `del(1)`, Figures 1 and 2).
//!
//! State is a [`ChunkTree`] — a balanced chunked sequence with cached
//! element counts, so applies cost O(log n) seek + O(chunk) splice instead
//! of shifting the whole tail (see [`crate::state`]).
//! [`ListOp::apply_vec`] keeps the plain-`Vec` semantics as the reference
//! implementation for differential tests.
//! Operations are index-addressed insert / delete / set
//! plus their **span** forms [`ListOp::InsertRun`] / [`ListOp::DeleteRange`],
//! which carry a whole contiguous run in one operation. Inserts and
//! deletes are the text algebra's over a `Vec<T>` payload: their
//! transform, compose and bounds rules are [`crate::edit`]'s, with the
//! Spawn & Merge tie-break rule that on an equal-index insert/insert
//! conflict the committed ([`Side::Left`]) operation keeps its position.
//! This module keeps only the `Set` arms: on an equal-index set/set
//! conflict the *incoming* operation wins (last-merged-wins), which keeps
//! TP1 intact because exactly one of the pair survives.
//!
//! Span operations exist for merge cost: a child that appended 500 elements
//! rebases as **one** `InsertRun` instead of 500 `Insert`s, collapsing the
//! O(|committed|·|incoming|) transformation grid (see
//! [`crate::compose::compact`]). A `DeleteRange` interleaved by a concurrent
//! insert splits into two ranges so the concurrently inserted element
//! survives.

use crate::delta::{DeltaOp, OpSpan};
use crate::edit::{self, Edit};
use crate::state::ChunkTree;
use crate::{ApplyError, Operation, Side, Transformed};

/// Requirements on list element types.
pub trait Element: Clone + Send + Sync + std::fmt::Debug + PartialEq + 'static {}
impl<T: Clone + Send + Sync + std::fmt::Debug + PartialEq + 'static> Element for T {}

/// An operation on a list of `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListOp<T> {
    /// Insert `T` so it ends up at the given index (`0 ≤ i ≤ len`).
    Insert(usize, T),
    /// Delete the element at the given index.
    Delete(usize),
    /// Replace the element at the given index.
    Set(usize, T),
    /// Insert a contiguous run of elements starting at the given index
    /// (`0 ≤ i ≤ len`): the span form of [`ListOp::Insert`].
    InsertRun(usize, Vec<T>),
    /// Delete the `len` contiguous elements starting at the given index:
    /// the span form of [`ListOp::Delete`].
    DeleteRange(usize, usize),
}

impl<T: Element> ListOp<T> {
    /// Apply against a plain `Vec`: the scalar reference implementation
    /// the property suites diff the [`ChunkTree`] backend against.
    ///
    /// # Errors
    /// Fails when the index or range falls outside the list.
    pub fn apply_vec(&self, state: &mut Vec<T>) -> Result<(), ApplyError> {
        edit::check_bounds(self, state.len())?;
        match self {
            ListOp::Insert(i, v) => state.insert(*i, v.clone()),
            ListOp::Delete(i) => {
                state.remove(*i);
            }
            ListOp::Set(i, v) => state[*i] = v.clone(),
            ListOp::InsertRun(i, vs) => {
                state.splice(*i..*i, vs.iter().cloned());
            }
            ListOp::DeleteRange(i, n) => {
                state.drain(*i..i + n);
            }
        }
        Ok(())
    }
}

/// Slots per [`FreeSlots`] group: four bitmap words, one `u16` count.
const GROUP: usize = 256;

/// Slots per top-level [`FreeSlots`] super-group: four groups, one `u32`
/// count. A third level keeps the selection scan ~`m/1024 + 12` steps
/// for the window sizes batch replay produces.
const SUPER: usize = 4 * GROUP;

/// `SELECT_IN_BYTE[v * 8 + r]` = bit index of the `r + 1`-th set bit of
/// byte `v` (0 where `r ≥ popcount(v)`, never consulted).
const SELECT_IN_BYTE: [u8; 2048] = build_select_in_byte();

const fn build_select_in_byte() -> [u8; 2048] {
    let mut table = [0u8; 2048];
    let mut v = 0usize;
    while v < 256 {
        let mut r = 0usize;
        let mut bit = 0usize;
        while bit < 8 {
            if v & (1 << bit) != 0 {
                table[v * 8 + r] = bit as u8;
                r += 1;
            }
            bit += 1;
        }
        v += 1;
    }
    table
}

/// Index (0-based) of the `rank`-th (1-based) set bit; `rank` ≤ popcount.
///
/// Branch-free select64: SWAR per-byte popcounts, byte-prefix sums via
/// one multiply, the target byte from the low set lane of a packed
/// compare, then a table lookup inside the byte — short dependency
/// chains instead of a six-level halving descend.
fn select_bit(x: u64, rank: u32) -> u32 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut c = x - ((x >> 1) & 0x5555_5555_5555_5555);
    c = (c & 0x3333_3333_3333_3333) + ((c >> 2) & 0x3333_3333_3333_3333);
    c = (c + (c >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    // Byte `j` of `prefix` = popcount of bits 0..8j+7; lanes stay below
    // 128, so `(prefix | HIGHS) - rank·ONES` never borrows across lanes
    // and bit 7 of lane `j` survives exactly when prefix_j ≥ rank.
    let prefix = c.wrapping_mul(ONES);
    let hits = ((prefix | HIGHS) - u64::from(rank) * ONES) & HIGHS;
    let byte = hits.trailing_zeros() >> 3;
    let before = ((prefix << 8) >> (8 * byte)) & 0xFF;
    let in_byte = rank - before as u32;
    let bv = ((x >> (8 * byte)) & 0xFF) as usize;
    8 * byte + u32::from(SELECT_IN_BYTE[bv * 8 + in_byte as usize - 1])
}

/// Two-level free-slot index over `m` slots: a `u64` bitmap (1 = free)
/// with per-word popcounts, and a `u16` free count per [`GROUP`]-slot
/// group. Selection scans each level without early exit — unpredictable
/// comparisons compile to conditional moves instead of the
/// branch-mispredicted binary descend a Fenwick tree costs — so a select
/// is ~(m/256 + 4) predictable steps plus one [`select_bit`], and an
/// update is O(1).
struct FreeSlots {
    bits: Vec<u64>,
    word: Vec<u8>,
    group: Vec<u16>,
    wide: Vec<u32>,
}

impl FreeSlots {
    fn new(m: usize) -> FreeSlots {
        let mut slots = FreeSlots {
            bits: Vec::new(),
            word: Vec::new(),
            group: Vec::new(),
            wide: Vec::new(),
        };
        slots.reset(m);
        slots
    }

    /// Re-initialize for `m` all-free slots, reusing the allocations.
    fn reset(&mut self, m: usize) {
        let ng = m.div_ceil(GROUP);
        // Pad to whole groups; padding words hold no free slots and valid
        // ranks never reach them.
        self.bits.clear();
        self.bits.resize(ng * (GROUP / 64), 0u64);
        let nb = m.div_ceil(64);
        for b in self.bits.iter_mut().take(nb - 1) {
            *b = u64::MAX;
        }
        self.bits[nb - 1] = if m.is_multiple_of(64) {
            u64::MAX
        } else {
            (1u64 << (m % 64)) - 1
        };
        self.word.clear();
        self.word
            .extend(self.bits.iter().map(|b| b.count_ones() as u8));
        self.group.clear();
        self.group.extend((0..ng).map(|g| {
            self.word[g * (GROUP / 64)..(g + 1) * (GROUP / 64)]
                .iter()
                .map(|&c| u16::from(c))
                .sum::<u16>()
        }));
        self.wide.clear();
        self.wide.extend(
            self.group
                .chunks(SUPER / GROUP)
                .map(|gs| gs.iter().map(|&c| u32::from(c)).sum::<u32>()),
        );
    }

    fn mark_taken(&mut self, slot: usize) {
        self.bits[slot / 64] &= !(1u64 << (slot % 64));
        self.word[slot / 64] -= 1;
        self.group[slot / GROUP] -= 1;
        self.wide[slot / SUPER] -= 1;
    }

    /// Select the `rank`-th (1-based) free slot and mark it taken.
    /// `rank` must not exceed the current free count.
    fn take(&mut self, rank: u32) -> usize {
        let mut si = 0usize;
        let mut srun = 0u32;
        let mut spre = 0u32;
        for &c in &self.wide {
            srun += c;
            let lt = srun < rank;
            si += usize::from(lt);
            spre = if lt { srun } else { spre };
        }
        let grank = rank - spre;
        let gbase = si * (SUPER / GROUP);
        let gend = (gbase + SUPER / GROUP).min(self.group.len());
        let mut gi = gbase;
        let mut run = 0u32;
        let mut pre = 0u32;
        for &c in &self.group[gbase..gend] {
            run += u32::from(c);
            let lt = run < grank;
            gi += usize::from(lt);
            pre = if lt { run } else { pre };
        }
        let mut rest = grank - pre;
        let base = gi * (GROUP / 64);
        let mut wi = base;
        let mut wrun = 0u32;
        let mut wpre = 0u32;
        for &c in &self.word[base..base + GROUP / 64] {
            wrun += u32::from(c);
            let lt = wrun < rest;
            wi += usize::from(lt);
            wpre = if lt { wrun } else { wpre };
        }
        rest -= wpre;
        let slot = wi * 64 + select_bit(self.bits[wi], rest) as usize;
        self.mark_taken(slot);
        slot
    }

    /// Take the first free slot above `slot` (there must be one): the
    /// cheap path for a run's trailing units, which occupy consecutive
    /// free slots.
    fn take_next_after(&mut self, slot: usize) -> usize {
        let mut w = slot / 64;
        let bit = (slot % 64) as u32;
        let above = if bit == 63 {
            0
        } else {
            self.bits[w] & !((1u64 << (bit + 1)) - 1)
        };
        let slot = if above != 0 {
            w * 64 + above.trailing_zeros() as usize
        } else {
            w += 1;
            while self.word[w] == 0 {
                w += 1;
            }
            w * 64 + self.bits[w].trailing_zeros() as usize
        };
        self.mark_taken(slot);
        slot
    }
}

/// Applies an insert-only batch to a window in one pass instead of one
/// tree splice per op. It owns the free-slot index, so repeated batches
/// (journal replay threads one planner through every commit) skip the
/// per-batch allocation churn.
pub struct InsertPlanner {
    free: FreeSlots,
}

impl Default for InsertPlanner {
    fn default() -> Self {
        Self::new()
    }
}

impl InsertPlanner {
    /// An empty planner; allocations grow to fit the largest batch seen.
    pub fn new() -> Self {
        InsertPlanner {
            free: FreeSlots::new(1),
        }
    }

    /// Write the result of an insert-only batch over the window `base`
    /// straight into `out` (length `base.len()` plus the inserted units,
    /// every slot is overwritten). `runs` are `(window-relative position,
    /// values)` in op order, already bounds-checked, none empty.
    ///
    /// Each inserted unit's final slot is found by walking the ops in
    /// reverse against the free-slot index: the op applied last sees no
    /// later inserts, so its position indexes the free slots directly,
    /// and taking its slots re-creates the document the op before it
    /// saw. A run's units take consecutive free slots. The slots left
    /// free then take `base` in order: they are the set bits of the
    /// index.
    pub fn plan_assemble<T: Clone>(&mut self, runs: &[(usize, &[T])], base: &[T], out: &mut [T]) {
        debug_assert_eq!(
            out.len(),
            base.len() + runs.iter().map(|(_, vs)| vs.len()).sum::<usize>()
        );
        self.free.reset(out.len());
        for (rel, vs) in runs.iter().rev() {
            let mut slot = self.free.take(*rel as u32 + 1);
            out[slot] = vs[0].clone();
            for v in &vs[1..] {
                slot = self.free.take_next_after(slot);
                out[slot] = v.clone();
            }
        }
        let mut bpos = 0usize;
        for (wi, &bits) in self.free.bits.iter().enumerate() {
            let mut bv = bits;
            while bv != 0 {
                let slot = wi * 64 + bv.trailing_zeros() as usize;
                out[slot] = base[bpos].clone();
                bpos += 1;
                bv &= bv - 1;
            }
        }
        debug_assert_eq!(bpos, base.len());
    }
}

impl<T: Element> Operation for ListOp<T> {
    type State = ChunkTree<T>;

    type Memo = crate::delta::Memo<Vec<T>>;

    const STATE_BY_VALUE: bool = true;

    fn shares_state(a: &ChunkTree<T>, b: &ChunkTree<T>) -> bool {
        a.ptr_eq(b)
    }

    fn apply(&self, state: &mut ChunkTree<T>) -> Result<(), ApplyError> {
        // Length checks are O(1) against the root's cached count; the
        // edits themselves are O(log n) seek + O(chunk) splice.
        edit::check_bounds(self, state.len())?;
        match self {
            ListOp::Insert(i, v) => state.insert(*i, v.clone()),
            ListOp::Delete(i) => {
                state.remove(*i);
            }
            ListOp::Set(i, v) => state.set(*i, v.clone()),
            ListOp::InsertRun(i, vs) => state.insert_slice(*i, vs),
            ListOp::DeleteRange(i, n) => state.remove_range(*i, *n),
        }
        Ok(())
    }

    fn check_run(state: &ChunkTree<T>, run: &[Self]) -> Result<(), ApplyError> {
        edit::check_run(state.len(), run)
    }

    fn transform(&self, against: &Self, side: Side) -> Transformed<Self> {
        let ListOp::Set(i, _) = *self else {
            return edit::transform(self, against, side);
        };
        match against.edit() {
            // An insert at or before our slot pushes it right.
            Edit::Insert(j, t, _) if j <= i => Transformed::One(self.with_pos(i + t)),
            // The element we intended to overwrite is gone.
            Edit::Delete(j, m) if j <= i && i < j + m => Transformed::None,
            Edit::Delete(j, m) if j <= i => Transformed::One(self.with_pos(i - m)),
            // Exactly one of two writes to one slot survives, so both
            // serializations agree: the incoming (Right) write wins.
            Edit::Set(j) if j == i && side == Side::Left => Transformed::None,
            _ => Transformed::One(self.clone()),
        }
    }

    fn compose(&self, next: &Self) -> Option<Self> {
        match (self, next, self.edit(), next.edit()) {
            // Two writes to the same slot: the second wins. A write whose
            // slot the very next delete removes: the delete alone.
            (ListOp::Set(i, _), ListOp::Set(j, _), ..) if i == j => Some(next.clone()),
            (ListOp::Set(i, _), _, _, Edit::Delete(j, m)) if j <= *i && *i < j + m => {
                Some(next.clone())
            }
            // Insert then overwrite inside the run: insert the final value.
            (_, ListOp::Set(j, v), Edit::Insert(i, len, units), _) if i <= *j && *j < i + len => {
                let mut vs = units.to_vec();
                vs[j - i] = v.clone();
                Some(Self::from_span(OpSpan::Insert {
                    pos: i,
                    payload: vs,
                }))
            }
            _ => edit::compose(self, next),
        }
    }

    fn annihilates(&self, next: &Self) -> bool {
        edit::annihilates(self, next)
    }

    fn delta_rebase(
        incoming: &[Self],
        committed: &[Self],
        memo: &mut Self::Memo,
        reuse: bool,
    ) -> Option<(Vec<Self>, crate::delta::DeltaStats)> {
        memo.rebase(incoming, committed, reuse)
    }

    fn delta_absorb(memo: &mut Self::Memo, op: &Self) -> bool {
        memo.absorb(op)
    }
}

impl<T: Element> DeltaOp for ListOp<T> {
    type Payload = Vec<T>;

    fn edit(&self) -> Edit<'_, [T]> {
        match self {
            ListOp::Insert(pos, v) => Edit::Insert(*pos, 1, std::slice::from_ref(v)),
            ListOp::InsertRun(pos, vs) => Edit::Insert(*pos, vs.len(), vs),
            ListOp::Delete(pos) => Edit::Delete(*pos, 1),
            ListOp::DeleteRange(pos, len) => Edit::Delete(*pos, *len),
            ListOp::Set(pos, _) => Edit::Set(*pos),
        }
    }

    fn with_pos(&self, i: usize) -> Self {
        match self {
            ListOp::Insert(_, v) => ListOp::Insert(i, v.clone()),
            ListOp::Delete(_) => ListOp::Delete(i),
            ListOp::Set(_, v) => ListOp::Set(i, v.clone()),
            ListOp::InsertRun(_, vs) => ListOp::InsertRun(i, vs.clone()),
            ListOp::DeleteRange(_, n) => ListOp::DeleteRange(i, *n),
        }
    }

    /// Canonical forms: a plain `Insert` / `Delete` for a single element.
    fn from_span(span: OpSpan<Vec<T>>) -> Self {
        match span {
            OpSpan::Insert { pos, mut payload } if payload.len() == 1 => {
                ListOp::Insert(pos, payload.pop().expect("len checked"))
            }
            OpSpan::Insert { pos, payload } => ListOp::InsertRun(pos, payload),
            OpSpan::Delete { pos, len: 1 } => ListOp::Delete(pos),
            OpSpan::Delete { pos, len } => ListOp::DeleteRange(pos, len),
        }
    }

    #[cold]
    fn out_of_range(&self, len: usize) -> ApplyError {
        ApplyError::new(match self {
            ListOp::Insert(i, _) => format!("insert index {i} out of range (len {len})"),
            ListOp::Delete(i) => format!("delete index {i} out of range (len {len})"),
            ListOp::Set(i, _) => format!("set index {i} out of range (len {len})"),
            ListOp::InsertRun(i, _) => format!("insert-run index {i} out of range (len {len})"),
            ListOp::DeleteRange(i, n) => format!("delete range {i}+{n} out of range (len {len})"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply_all, assert_tp1, seq};

    type Op = ListOp<char>;

    fn base() -> ChunkTree<char> {
        ChunkTree::from_vec(vec!['a', 'b', 'c'])
    }

    #[test]
    fn a_delete_range_ending_past_usize_max_is_refused_not_wrapped() {
        let hostile: Op = ListOp::DeleteRange(usize::MAX, 2);
        let mut s = base();
        let err = hostile.apply(&mut s).unwrap_err();
        assert!(err.reason.contains("out of range (len 3)"), "{err}");
        assert_eq!(s.to_vec(), vec!['a', 'b', 'c']);
        let mut plain = vec!['a', 'b', 'c'];
        assert_eq!(hostile.apply_vec(&mut plain), Err(err));
        assert_eq!(plain, vec!['a', 'b', 'c']);
    }

    #[test]
    fn apply_insert_delete_set() {
        let mut s = base();
        Op::Insert(0, 'd').apply(&mut s).unwrap();
        assert_eq!(s, vec!['d', 'a', 'b', 'c']);
        Op::Delete(2).apply(&mut s).unwrap();
        assert_eq!(s, vec!['d', 'a', 'c']);
        Op::Set(1, 'z').apply(&mut s).unwrap();
        assert_eq!(s, vec!['d', 'z', 'c']);
    }

    #[test]
    fn apply_span_forms() {
        let mut s = base();
        Op::InsertRun(1, vec!['x', 'y']).apply(&mut s).unwrap();
        assert_eq!(s, vec!['a', 'x', 'y', 'b', 'c']);
        Op::DeleteRange(1, 3).apply(&mut s).unwrap();
        assert_eq!(s, vec!['a', 'c']);
    }

    #[test]
    fn apply_out_of_range_errors() {
        let mut s = base();
        assert!(Op::Insert(4, 'x').apply(&mut s).is_err());
        assert!(Op::Delete(3).apply(&mut s).is_err());
        assert!(Op::Set(3, 'x').apply(&mut s).is_err());
        assert!(Op::InsertRun(4, vec!['x']).apply(&mut s).is_err());
        assert!(Op::DeleteRange(2, 2).apply(&mut s).is_err());
        assert_eq!(s, base(), "failed ops must not mutate state");
    }

    #[test]
    fn insert_at_len_is_append() {
        let mut s = base();
        Op::Insert(3, 'd').apply(&mut s).unwrap();
        assert_eq!(s, vec!['a', 'b', 'c', 'd']);
    }

    /// Figure 1 of the paper: applying the raw (untransformed) concurrent
    /// operations yields diverged replicas.
    #[test]
    fn figure1_divergence_without_ot() {
        let op_a = Op::Delete(2);
        let op_b = Op::Insert(0, 'd');

        // Process A: own delete, then B's raw insert.
        let mut site_a = base();
        op_a.apply(&mut site_a).unwrap();
        op_b.apply(&mut site_a).unwrap();
        assert_eq!(site_a, vec!['d', 'a', 'b']);

        // Process B: own insert, then A's raw delete.
        let mut site_b = base();
        op_b.apply(&mut site_b).unwrap();
        op_a.apply(&mut site_b).unwrap();
        assert_eq!(site_b, vec!['d', 'a', 'c']);

        assert_ne!(site_a, site_b, "the whole point of Figure 1");
    }

    /// Figure 2 of the paper: with OT both replicas converge to [d,a,b],
    /// the delete being transformed to index 3.
    #[test]
    fn figure2_convergence_with_ot() {
        let op_a = Op::Delete(2);
        let op_b = Op::Insert(0, 'd');

        let a_at_b = op_a.transform(&op_b, Side::Right).into_vec();
        assert_eq!(a_at_b, vec![Op::Delete(3)]);
        let b_at_a = op_b.transform(&op_a, Side::Left).into_vec();
        assert_eq!(b_at_a, vec![Op::Insert(0, 'd')]);

        let mut site_a = base();
        op_a.apply(&mut site_a).unwrap();
        apply_all(&mut site_a, &b_at_a).unwrap();

        let mut site_b = base();
        op_b.apply(&mut site_b).unwrap();
        apply_all(&mut site_b, &a_at_b).unwrap();

        assert_eq!(site_a, vec!['d', 'a', 'b']);
        assert_eq!(site_a, site_b);
    }

    #[test]
    fn tp1_insert_insert_all_index_pairs() {
        for i in 0..=3 {
            for j in 0..=3 {
                assert_tp1(&base(), &Op::Insert(i, 'x'), &Op::Insert(j, 'y'));
            }
        }
    }

    #[test]
    fn tp1_delete_delete_all_index_pairs() {
        for i in 0..3 {
            for j in 0..3 {
                assert_tp1(&base(), &Op::Delete(i), &Op::Delete(j));
            }
        }
    }

    #[test]
    fn tp1_mixed_pairs_exhaustive() {
        let ops: Vec<Op> = {
            let mut v = Vec::new();
            for i in 0..3 {
                v.push(Op::Delete(i));
                v.push(Op::Set(i, 'x'));
                v.push(Op::Insert(i, 'y'));
            }
            v.push(Op::Insert(3, 'z'));
            v
        };
        for a in &ops {
            for b in &ops {
                assert_tp1(&base(), a, b);
            }
        }
    }

    #[test]
    fn tp1_span_pairs_exhaustive() {
        // Every span/point op over a 6-element base, against every other.
        let base: ChunkTree<u8> = (0..6).collect();
        let mut ops: Vec<ListOp<u8>> = Vec::new();
        for i in 0..=6 {
            ops.push(ListOp::Insert(i, 90));
            ops.push(ListOp::InsertRun(i, vec![91, 92]));
            ops.push(ListOp::InsertRun(i, vec![93, 94, 95]));
        }
        for i in 0..6 {
            ops.push(ListOp::Delete(i));
            ops.push(ListOp::Set(i, 99));
            for n in 1..=(6 - i) {
                ops.push(ListOp::DeleteRange(i, n));
            }
        }
        for a in &ops {
            for b in &ops {
                assert_tp1(&base, a, b);
            }
        }
    }

    #[test]
    fn delete_range_splits_around_concurrent_insert() {
        // Delete [1,4); concurrent insert of a run at 2.
        let del = ListOp::DeleteRange(1, 3);
        let ins = ListOp::InsertRun(2, vec![90, 91]);
        let t = del.transform(&ins, Side::Right);
        assert_eq!(
            t,
            Transformed::Two(ListOp::Delete(1), ListOp::DeleteRange(3, 2))
        );
        // End state must keep the inserted run.
        let mut s: ChunkTree<u8> = (0..6).collect();
        ins.apply(&mut s).unwrap();
        for piece in t.into_vec() {
            piece.apply(&mut s).unwrap();
        }
        assert_eq!(s, vec![0, 90, 91, 4, 5]);
    }

    #[test]
    fn span_ops_are_equivalent_to_element_runs() {
        // An `InsertRun`/`DeleteRange` must transform exactly like the
        // element-wise run it abbreviates, for every concurrent point op.
        let base: ChunkTree<u8> = (0..6).collect();
        let mut others: Vec<ListOp<u8>> = Vec::new();
        for i in 0..=6 {
            others.push(ListOp::Insert(i, 80));
        }
        for i in 0..6 {
            others.push(ListOp::Delete(i));
            others.push(ListOp::Set(i, 81));
        }
        let runs: Vec<Vec<ListOp<u8>>> = vec![
            vec![ListOp::InsertRun(2, vec![91, 92, 93])],
            vec![
                ListOp::Insert(2, 91),
                ListOp::Insert(3, 92),
                ListOp::Insert(4, 93),
            ],
            vec![ListOp::DeleteRange(1, 3)],
            vec![ListOp::Delete(1), ListOp::Delete(1), ListOp::Delete(1)],
        ];
        for pair in runs.chunks(2) {
            for other in &others {
                let committed = std::slice::from_ref(other);
                let a = seq::rebase(&pair[0], committed);
                let b = seq::rebase(&pair[1], committed);
                let mut sa = base.clone();
                let mut sb = base.clone();
                apply_all(&mut sa, committed).unwrap();
                apply_all(&mut sb, committed).unwrap();
                apply_all(&mut sa, &a).unwrap();
                apply_all(&mut sb, &b).unwrap();
                assert_eq!(sa, sb, "span vs element run diverged against {other:?}");
            }
        }
    }

    #[test]
    fn compose_fuses_adjacent_runs() {
        let a = ListOp::Insert(2, 'x');
        assert_eq!(
            a.compose(&ListOp::Insert(3, 'y')),
            Some(ListOp::InsertRun(2, vec!['x', 'y']))
        );
        let run = ListOp::InsertRun(2, vec!['x', 'y']);
        assert_eq!(
            run.compose(&ListOp::Set(3, 'z')),
            Some(ListOp::InsertRun(2, vec!['x', 'z']))
        );
        let d = Op::Delete(4);
        assert_eq!(d.compose(&Op::Delete(4)), Some(Op::DeleteRange(4, 2)));
        assert_eq!(d.compose(&Op::Delete(3)), Some(Op::DeleteRange(3, 2)));
        assert!(Op::Insert(1, 'q').annihilates(&Op::Delete(1)));
        assert!(ListOp::InsertRun(1, vec!['q', 'r']).annihilates(&ListOp::DeleteRange(1, 2)));
    }

    #[test]
    fn set_set_incoming_wins() {
        let committed = Op::Set(1, 'P');
        let incoming = Op::Set(1, 'C');
        // Parent-side op transformed against incoming with Left priority
        // vanishes; incoming survives.
        assert_eq!(
            committed.transform(&incoming, Side::Left),
            Transformed::None
        );
        assert_eq!(
            incoming.transform(&committed, Side::Right),
            Transformed::One(Op::Set(1, 'C'))
        );
    }

    #[test]
    fn random_sequences_converge() {
        // Deterministic pseudo-random op sequences over a bigger list.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..200 {
            let base: ChunkTree<u32> = (0..8).collect();
            let gen = |rng: &mut StdRng, len0: usize| {
                let mut len = len0;
                let mut ops = Vec::new();
                for _ in 0..rng.gen_range(0..6) {
                    let op = match rng.gen_range(0..5) {
                        0 => {
                            let i = rng.gen_range(0..=len);
                            len += 1;
                            ListOp::Insert(i, rng.gen_range(100..200))
                        }
                        1 if len > 0 => {
                            let i = rng.gen_range(0..len);
                            len -= 1;
                            ListOp::Delete(i)
                        }
                        2 => {
                            let i = rng.gen_range(0..=len);
                            let run: Vec<u32> = (0..rng.gen_range(1..4))
                                .map(|_| rng.gen_range(200..300))
                                .collect();
                            len += run.len();
                            ListOp::InsertRun(i, run)
                        }
                        3 if len > 0 => {
                            let i = rng.gen_range(0..len);
                            let n = rng.gen_range(1..=(len - i).min(3));
                            len -= n;
                            ListOp::DeleteRange(i, n)
                        }
                        _ if len > 0 => ListOp::Set(rng.gen_range(0..len), rng.gen()),
                        _ => continue,
                    };
                    ops.push(op);
                }
                ops
            };
            let left = gen(&mut rng, base.len());
            let right = gen(&mut rng, base.len());
            seq::tests::assert_converges(&base, &left, &right);
        }
    }
}
