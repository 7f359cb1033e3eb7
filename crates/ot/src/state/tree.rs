//! Generic balanced chunk tree: the shared engine behind [`super::Rope`]
//! and [`super::ChunkTree`].
//!
//! A state is a height-balanced (AVL-style) binary tree whose **leaves are
//! chunks** — contiguous runs of content bounded by [`Chunk::MAX_WEIGHT`]
//! measured units (characters for text, elements for lists). Every inner
//! node caches the total weight and height of its subtree, so position
//! seeks are O(log n) and total length is O(1) at the root.
//!
//! All nodes live behind [`Arc`]: cloning a tree is O(1) and shares every
//! chunk. Point edits path-copy via [`Arc::make_mut`] — only the O(log n)
//! spine from root to the touched leaf (plus that one chunk) is unshared,
//! which is what makes `Versioned::fork` copy-on-write *sub-structure
//! granular*: a child editing one chunk of a megabyte document deep-copies
//! roughly one chunk.
//!
//! An insert of at most one chunk's worth stays on that path even when its
//! leaf is full: the leaf splits in place into an inner node over two
//! halves, and the way back up fixes cached heights with at most one AVL
//! rotation — the textbook AVL insert, with a chunk standing in for a key.
//!
//! Other structural edits use `split`/`join`. `join` is the keyless
//! analogue of the AVL join algorithm (Blelloch, Ferizovic, Sun — "Just
//! Join for Parallel Ordered Sets"): it descends the taller tree's spine
//! and repairs imbalance with single/double rotations, preserving the
//! in-order chunk sequence.

use std::sync::Arc;

/// A leaf payload: a bounded contiguous run of measured content.
pub(crate) trait Chunk: Clone + Send + Sync + std::fmt::Debug + 'static {
    /// Upper bound on a chunk's weight; edits that would overflow it split
    /// the chunk.
    const MAX_WEIGHT: usize;

    /// Number of measured units (chars / elements) in the chunk.
    fn weight(&self) -> usize;

    /// Keep `[0, at)` here and return `[at, weight)`; `at ≤ weight`.
    fn split_off(&mut self, at: usize) -> Self;

    /// Insert the whole content of `other` at weight-offset `at`
    /// (`0 ≤ at ≤ weight`).
    fn splice(&mut self, at: usize, other: &Self);

    /// Remove the `len` units starting at weight-offset `at`.
    fn remove_range(&mut self, at: usize, len: usize);

    /// Slice into pieces of at most `target` weight, preserving order, in
    /// one O(n) pass; bulk inserts (and the batch replay lane) feed whole
    /// windows through here.
    fn into_pieces(self, target: usize) -> Vec<Self>;
}

/// Target size for chunks produced when slicing oversized content: half
/// the maximum, so fresh leaves retain headroom for in-place splices.
pub(crate) fn target_weight<C: Chunk>() -> usize {
    (C::MAX_WEIGHT / 2).max(1)
}

#[derive(Debug, Clone)]
pub(crate) enum Node<C> {
    Leaf(C),
    Inner {
        left: Arc<Node<C>>,
        right: Arc<Node<C>>,
        /// Cached total weight of the subtree.
        weight: usize,
        /// Cached height: leaves are 0.
        height: u8,
    },
}

impl<C: Chunk> Node<C> {
    fn weight(&self) -> usize {
        match self {
            Node::Leaf(c) => c.weight(),
            Node::Inner { weight, .. } => *weight,
        }
    }

    fn height(&self) -> u8 {
        match self {
            Node::Leaf(_) => 0,
            Node::Inner { height, .. } => *height,
        }
    }

    fn children(&self) -> (&Arc<Node<C>>, &Arc<Node<C>>) {
        match self {
            Node::Inner { left, right, .. } => (left, right),
            Node::Leaf(_) => unreachable!("children() on a leaf"),
        }
    }
}

fn leaf<C: Chunk>(c: C) -> Arc<Node<C>> {
    debug_assert!(c.weight() >= 1 && c.weight() <= C::MAX_WEIGHT);
    Arc::new(Node::Leaf(c))
}

/// Plain inner node; the pair must already be height-balanced.
fn node<C: Chunk>(l: Arc<Node<C>>, r: Arc<Node<C>>) -> Arc<Node<C>> {
    debug_assert!(l.height().abs_diff(r.height()) <= 1);
    Arc::new(Node::Inner {
        weight: l.weight() + r.weight(),
        height: l.height().max(r.height()) + 1,
        left: l,
        right: r,
    })
}

/// Repair `node(l, t)` when `t` is exactly two taller than `l`.
fn balance_right_heavy<C: Chunk>(l: Arc<Node<C>>, t: Arc<Node<C>>) -> Arc<Node<C>> {
    debug_assert_eq!(t.height(), l.height() + 2);
    let (tl, tr) = t.children();
    if tl.height() <= tr.height() {
        // Single left rotation.
        node(node(l, tl.clone()), tr.clone())
    } else {
        // Double rotation; `tl` is taller than `tr`, hence an inner node.
        let (tll, tlr) = tl.children();
        node(node(l, tll.clone()), node(tlr.clone(), tr.clone()))
    }
}

/// Repair `node(t, r)` when `t` is exactly two taller than `r`.
fn balance_left_heavy<C: Chunk>(t: Arc<Node<C>>, r: Arc<Node<C>>) -> Arc<Node<C>> {
    debug_assert_eq!(t.height(), r.height() + 2);
    let (tl, tr) = t.children();
    if tr.height() <= tl.height() {
        node(tl.clone(), node(tr.clone(), r))
    } else {
        let (trl, trr) = tr.children();
        node(node(tl.clone(), trl.clone()), node(trr.clone(), r))
    }
}

/// Concatenate two balanced trees into one balanced tree, preserving
/// order. O(|height difference|).
fn join<C: Chunk>(l: Arc<Node<C>>, r: Arc<Node<C>>) -> Arc<Node<C>> {
    let (hl, hr) = (l.height(), r.height());
    if hl.abs_diff(hr) <= 1 {
        node(l, r)
    } else if hl > hr {
        join_right(&l, r)
    } else {
        join_left(l, &r)
    }
}

/// `join` when the left tree is at least two taller: descend its right
/// spine until the remainder balances against `r`, rebalancing upward.
fn join_right<C: Chunk>(l: &Arc<Node<C>>, r: Arc<Node<C>>) -> Arc<Node<C>> {
    debug_assert!(l.height() >= r.height() + 2);
    let (ll, lr) = l.children();
    let t = if lr.height() <= r.height() + 1 {
        node(lr.clone(), r)
    } else {
        join_right(lr, r)
    };
    if t.height() <= ll.height() + 1 {
        node(ll.clone(), t)
    } else {
        balance_right_heavy(ll.clone(), t)
    }
}

/// Mirror of [`join_right`] for a taller right tree.
fn join_left<C: Chunk>(l: Arc<Node<C>>, r: &Arc<Node<C>>) -> Arc<Node<C>> {
    debug_assert!(r.height() >= l.height() + 2);
    let (rl, rr) = r.children();
    let t = if rl.height() <= l.height() + 1 {
        node(l, rl.clone())
    } else {
        join_left(l, rl)
    };
    if t.height() <= rr.height() + 1 {
        node(t, rr.clone())
    } else {
        balance_left_heavy(t, rr.clone())
    }
}

fn join_opt<C: Chunk>(l: Option<Arc<Node<C>>>, r: Option<Arc<Node<C>>>) -> Option<Arc<Node<C>>> {
    match (l, r) {
        (None, x) | (x, None) => x,
        (Some(l), Some(r)) => Some(join(l, r)),
    }
}

/// Split at weight-position `pos` into `[0, pos)` and `[pos, weight)`.
/// A leaf straddling the cut is copied and split via [`Chunk::split_off`].
#[allow(clippy::type_complexity)]
fn split<C: Chunk>(n: &Arc<Node<C>>, pos: usize) -> (Option<Arc<Node<C>>>, Option<Arc<Node<C>>>) {
    if pos == 0 {
        return (None, Some(n.clone()));
    }
    if pos == n.weight() {
        return (Some(n.clone()), None);
    }
    match &**n {
        Node::Leaf(c) => {
            // Fully qualified: `Vec<T>` has inherent `split_off`/`splice`
            // that would otherwise shadow the `Chunk` methods.
            let mut a = c.clone();
            let b = Chunk::split_off(&mut a, pos);
            (Some(leaf(a)), Some(leaf(b)))
        }
        Node::Inner { left, right, .. } => {
            let lw = left.weight();
            if pos < lw {
                let (a, b) = split(left, pos);
                (a, join_opt(b, Some(right.clone())))
            } else {
                let (a, b) = split(right, pos - lw);
                (join_opt(Some(left.clone()), a), b)
            }
        }
    }
}

/// A balanced chunk tree; `None` is the empty state.
#[derive(Debug, Clone)]
pub(crate) struct Tree<C> {
    root: Option<Arc<Node<C>>>,
}

impl<C> Default for Tree<C> {
    fn default() -> Self {
        Tree { root: None }
    }
}

impl<C: Chunk> Tree<C> {
    pub(crate) fn new() -> Self {
        Tree { root: None }
    }

    /// Build from content chunks; empties are dropped, oversized chunks
    /// are sliced to [`target_weight`]. O(n).
    pub(crate) fn from_chunks(chunks: impl IntoIterator<Item = C>) -> Self {
        let leaves: Vec<Arc<Node<C>>> = chunks
            .into_iter()
            .flat_map(slice_to_pieces)
            .map(leaf)
            .collect();
        Tree {
            root: build_balanced(&leaves),
        }
    }

    pub(crate) fn weight(&self) -> usize {
        self.root.as_ref().map_or(0, |n| n.weight())
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Insert `content` at weight-position `pos` (`pos ≤ weight`).
    ///
    /// Content of at most one chunk goes into the leaf owning `pos` on one
    /// path-copying descent ([`Tree::insert_in_leaf`]). Only an empty tree
    /// or larger content takes the split at `pos` and joins the content in
    /// as fresh chunks.
    pub(crate) fn insert(&mut self, pos: usize, content: C) {
        debug_assert!(pos <= self.weight());
        let weight = content.weight();
        if weight == 0 || self.insert_in_leaf(pos, weight, |c, at| Chunk::splice(c, at, &content)) {
            return;
        }
        let leaves: Vec<_> = slice_to_pieces(content).into_iter().map(leaf).collect();
        let mid = build_balanced(&leaves);
        self.root = match self.root.take() {
            None => mid,
            Some(r) => {
                let (l, rr) = split(&r, pos);
                join_opt(join_opt(l, mid), rr)
            }
        };
    }

    /// [`Tree::insert`]'s one-descent path on its own: path-copy down to
    /// the leaf owning `pos` and let `splice` put `weight` units in at the
    /// in-leaf offset, so content the caller only borrows is copied once,
    /// straight into a leaf. A leaf that cannot absorb them splits in
    /// place into two halves (the leaf keeps its allocation for the first
    /// one), and the way back up rebalances with at most one rotation.
    /// Returns `false`, touching nothing, for an empty tree or more than
    /// [`Chunk::MAX_WEIGHT`] units.
    pub(crate) fn insert_in_leaf(
        &mut self,
        pos: usize,
        weight: usize,
        splice: impl FnOnce(&mut C, usize),
    ) -> bool {
        debug_assert!(pos <= self.weight());
        match &mut self.root {
            Some(r) if weight <= C::MAX_WEIGHT => {
                insert_in_place(r, pos, weight, splice);
                true
            }
            _ => false,
        }
    }

    /// Delete the `len` units starting at `pos` (`pos + len ≤ weight`).
    ///
    /// Fast path: a range inside a single leaf that leaves the leaf
    /// non-empty is removed with an in-place path-copy. Otherwise the tree
    /// is split around the range; the two boundary chunks at the seam are
    /// coalesced when their combined weight fits one chunk, bounding
    /// fragmentation under delete churn.
    pub(crate) fn delete(&mut self, pos: usize, len: usize) {
        debug_assert!(pos + len <= self.weight());
        if len == 0 {
            return;
        }
        let root = self.root.as_mut().expect("non-empty checked by caller");
        if can_delete_in_place(root, pos, len) {
            delete_in_place(root, pos, len);
            return;
        }
        let taken = self.root.take().expect("checked above");
        let (l, rest) = split(&taken, pos);
        let (_, rr) = split(rest.as_ref().expect("len > 0"), len);
        self.root = concat_merging_seam(l, rr);
    }

    /// The chunk containing weight-position `pos` (`pos < weight`) and the
    /// offset of `pos` within it.
    pub(crate) fn leaf_at(&self, pos: usize) -> (&C, usize) {
        debug_assert!(pos < self.weight());
        let mut n = self
            .root
            .as_deref()
            .expect("pos < weight implies non-empty");
        let mut off = pos;
        loop {
            match n {
                Node::Leaf(c) => return (c, off),
                Node::Inner { left, right, .. } => {
                    let lw = left.weight();
                    if off < lw {
                        n = left;
                    } else {
                        off -= lw;
                        n = right;
                    }
                }
            }
        }
    }

    /// Run `f` against the chunk containing `pos` (path-copied), passing
    /// the in-chunk offset. `f` may change the chunk's weight (but must
    /// keep it within `1..=MAX_WEIGHT`); cached weights on the spine are
    /// fixed up afterwards.
    pub(crate) fn with_leaf_mut<R>(&mut self, pos: usize, f: impl FnOnce(&mut C, usize) -> R) -> R {
        debug_assert!(pos < self.weight());
        let root = self.root.as_mut().expect("pos < weight implies non-empty");
        let (r, _) = leaf_mut_rec(root, pos, f);
        r
    }

    /// Visit every chunk overlapping `[pos, pos + len)` in order, with the
    /// in-chunk sub-range `[start, end)` that overlaps.
    pub(crate) fn for_each_in_range(
        &self,
        pos: usize,
        len: usize,
        mut f: impl FnMut(&C, usize, usize),
    ) {
        debug_assert!(pos + len <= self.weight());
        if len == 0 {
            return;
        }
        if let Some(root) = &self.root {
            for_each_rec(root, pos, len, &mut f);
        }
    }

    /// In-order iterator over the chunks.
    pub(crate) fn leaves(&self) -> Leaves<'_, C> {
        let mut stack = Vec::new();
        if let Some(r) = &self.root {
            stack.push(&**r);
        }
        Leaves { stack }
    }

    /// Whether `self` and `other` hold one root (or are both empty): a
    /// clone of the other that neither side has edited since.
    pub(crate) fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Number of chunks (O(n) walk; diagnostics only).
    pub(crate) fn leaf_count(&self) -> usize {
        self.leaves().count()
    }

    /// Sum `f` over every chunk of `self` whose allocation is **not**
    /// shared with `other` — the copy-on-write divergence metric.
    pub(crate) fn fold_unshared(&self, other: &Self, mut f: impl FnMut(&C) -> usize) -> usize {
        let mut theirs: std::collections::HashSet<*const Node<C>> =
            std::collections::HashSet::new();
        let mut stack: Vec<&Node<C>> = Vec::new();
        if let Some(r) = &other.root {
            stack.push(r);
        }
        while let Some(n) = stack.pop() {
            match n {
                Node::Leaf(_) => {
                    theirs.insert(std::ptr::from_ref(n));
                }
                Node::Inner { left, right, .. } => {
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
        let mut sum = 0;
        let mut stack: Vec<&Node<C>> = Vec::new();
        if let Some(r) = &self.root {
            stack.push(r);
        }
        while let Some(n) = stack.pop() {
            match n {
                Node::Leaf(c) => {
                    if !theirs.contains(&std::ptr::from_ref(n)) {
                        sum += f(c);
                    }
                }
                Node::Inner { left, right, .. } => {
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
        sum
    }

    /// Validate the structural invariants (balance, cached counts, chunk
    /// size bounds). Test support; panics on violation.
    #[doc(hidden)]
    pub(crate) fn check_invariants(&self) {
        fn walk<C: Chunk>(n: &Node<C>) -> (usize, u8) {
            match n {
                Node::Leaf(c) => {
                    assert!(
                        c.weight() >= 1 && c.weight() <= C::MAX_WEIGHT,
                        "leaf weight {} outside 1..={}",
                        c.weight(),
                        C::MAX_WEIGHT
                    );
                    (c.weight(), 0)
                }
                Node::Inner {
                    left,
                    right,
                    weight,
                    height,
                } => {
                    let (lw, lh) = walk(left);
                    let (rw, rh) = walk(right);
                    assert_eq!(*weight, lw + rw, "stale cached weight");
                    assert_eq!(*height, lh.max(rh) + 1, "stale cached height");
                    assert!(lh.abs_diff(rh) <= 1, "unbalanced node: {lh} vs {rh}");
                    (*weight, *height)
                }
            }
        }
        if let Some(r) = &self.root {
            walk(r);
        }
    }
}

/// Slice a chunk into pieces no larger than [`Chunk::MAX_WEIGHT`]
/// (targeting [`target_weight`] so fresh leaves keep splice headroom).
fn slice_to_pieces<C: Chunk>(c: C) -> Vec<C> {
    if c.weight() == 0 {
        return Vec::new();
    }
    if c.weight() <= C::MAX_WEIGHT {
        return vec![c];
    }
    c.into_pieces(target_weight::<C>())
}

/// Perfectly balanced tree over pre-sized leaves (recursive halving).
fn build_balanced<C: Chunk>(leaves: &[Arc<Node<C>>]) -> Option<Arc<Node<C>>> {
    match leaves.len() {
        0 => None,
        1 => Some(leaves[0].clone()),
        n => {
            let mid = n / 2;
            let l = build_balanced(&leaves[..mid]).expect("mid >= 1");
            let r = build_balanced(&leaves[mid..]).expect("n - mid >= 1");
            Some(join(l, r))
        }
    }
}

/// Path-copying insert of `extra ≤ MAX_WEIGHT` units, which `splice` puts
/// into the leaf owning `pos` (a boundary position resolves to the left
/// neighbour). A leaf that would overflow becomes an inner node over its
/// two halves; each inner node on the way back up recomputes its height
/// and, if the grown side is now two taller, rotates. The first rotation
/// restores the subtree's pre-insert height, so there is at most one.
fn insert_in_place<C: Chunk>(
    n: &mut Arc<Node<C>>,
    pos: usize,
    extra: usize,
    splice: impl FnOnce(&mut C, usize),
) {
    match Arc::make_mut(n) {
        Node::Leaf(c) => {
            if c.weight() + extra <= C::MAX_WEIGHT {
                splice(c, pos);
                return;
            }
            let second = leaf(splice_and_split(c, pos, extra, splice));
            // `n` keeps the leaf (and its chunk's allocation) as the
            // first half under a fresh inner node.
            *n = node(n.clone(), second);
        }
        Node::Inner {
            left,
            right,
            weight,
            height,
        } => {
            *weight += extra;
            let lw = left.weight();
            if pos <= lw {
                insert_in_place(left, pos, extra, splice);
            } else {
                insert_in_place(right, pos - lw, extra, splice);
            }
            let (lh, rh) = (left.height(), right.height());
            if lh.abs_diff(rh) <= 1 {
                *height = lh.max(rh) + 1;
                return;
            }
            let (l, r) = (left.clone(), right.clone());
            *n = if lh > rh {
                balance_left_heavy(l, r)
            } else {
                balance_right_heavy(l, r)
            };
        }
    }
}

/// Put `extra` units into the full chunk `c` at `at` through `splice` and
/// split the result into two halves: `c` keeps the first and its
/// allocation, the second is returned. Whichever half the units land in
/// wholly is split off first, so neither half outgrows its buffer.
fn splice_and_split<C: Chunk>(
    c: &mut C,
    at: usize,
    extra: usize,
    splice: impl FnOnce(&mut C, usize),
) -> C {
    let mid = (c.weight() + extra) / 2;
    if at >= mid {
        let mut second = Chunk::split_off(c, mid);
        splice(&mut second, at - mid);
        second
    } else if at + extra <= mid {
        let second = Chunk::split_off(c, mid - extra);
        splice(c, at);
        second
    } else {
        splice(c, at);
        Chunk::split_off(c, mid)
    }
}

/// Whether `[pos, pos + len)` lies inside a single leaf that would stay
/// non-empty after the removal.
fn can_delete_in_place<C: Chunk>(n: &Node<C>, pos: usize, len: usize) -> bool {
    match n {
        Node::Leaf(c) => len < c.weight(),
        Node::Inner { left, right, .. } => {
            let lw = left.weight();
            if pos + len <= lw {
                can_delete_in_place(left, pos, len)
            } else if pos >= lw {
                can_delete_in_place(right, pos - lw, len)
            } else {
                false
            }
        }
    }
}

/// Path-copying in-place range removal; caller has verified via
/// [`can_delete_in_place`].
fn delete_in_place<C: Chunk>(n: &mut Arc<Node<C>>, pos: usize, len: usize) {
    match Arc::make_mut(n) {
        Node::Leaf(c) => c.remove_range(pos, len),
        Node::Inner {
            left,
            right,
            weight,
            ..
        } => {
            *weight -= len;
            let lw = left.weight();
            if pos + len <= lw {
                delete_in_place(left, pos, len);
            } else {
                delete_in_place(right, pos - lw, len);
            }
        }
    }
}

/// Mutating point access; returns `f`'s result and the weight delta it
/// caused, fixing cached weights on the way back up.
fn leaf_mut_rec<C: Chunk, R>(
    n: &mut Arc<Node<C>>,
    pos: usize,
    f: impl FnOnce(&mut C, usize) -> R,
) -> (R, isize) {
    match Arc::make_mut(n) {
        Node::Leaf(c) => {
            let before = c.weight() as isize;
            let r = f(c, pos);
            let after = c.weight() as isize;
            debug_assert!(after >= 1 && after as usize <= C::MAX_WEIGHT);
            (r, after - before)
        }
        Node::Inner {
            left,
            right,
            weight,
            ..
        } => {
            let lw = left.weight();
            let (r, d) = if pos < lw {
                leaf_mut_rec(left, pos, f)
            } else {
                leaf_mut_rec(right, pos - lw, f)
            };
            *weight = (*weight as isize + d) as usize;
            (r, d)
        }
    }
}

fn for_each_rec<C: Chunk>(
    n: &Node<C>,
    pos: usize,
    len: usize,
    f: &mut impl FnMut(&C, usize, usize),
) {
    match n {
        Node::Leaf(c) => f(c, pos, pos + len),
        Node::Inner { left, right, .. } => {
            let lw = left.weight();
            if pos < lw {
                let left_len = len.min(lw - pos);
                for_each_rec(left, pos, left_len, f);
                if len > left_len {
                    for_each_rec(right, 0, len - left_len, f);
                }
            } else {
                for_each_rec(right, pos - lw, len, f);
            }
        }
    }
}

fn first_leaf_weight<C: Chunk>(n: &Arc<Node<C>>) -> usize {
    match &**n {
        Node::Leaf(c) => c.weight(),
        Node::Inner { left, .. } => first_leaf_weight(left),
    }
}

fn last_leaf_weight<C: Chunk>(n: &Arc<Node<C>>) -> usize {
    match &**n {
        Node::Leaf(c) => c.weight(),
        Node::Inner { right, .. } => last_leaf_weight(right),
    }
}

/// Join two trees, coalescing the two chunks adjacent to the seam when
/// their combined weight fits a single chunk.
fn concat_merging_seam<C: Chunk>(
    l: Option<Arc<Node<C>>>,
    r: Option<Arc<Node<C>>>,
) -> Option<Arc<Node<C>>> {
    let (l, r) = match (l, r) {
        (None, x) | (x, None) => return x,
        (Some(l), Some(r)) => (l, r),
    };
    let last_w = last_leaf_weight(&l);
    let first_w = first_leaf_weight(&r);
    if last_w + first_w > C::MAX_WEIGHT {
        return Some(join(l, r));
    }
    let (l_rest, l_last) = split(&l, l.weight() - last_w);
    let (r_first, r_rest) = split(&r, first_w);
    let mut merged = match &*l_last.expect("last leaf is non-empty") {
        Node::Leaf(c) => c.clone(),
        Node::Inner { .. } => unreachable!("split at last-leaf boundary yields a leaf"),
    };
    match &*r_first.expect("first leaf is non-empty") {
        Node::Leaf(c) => {
            let at = merged.weight();
            Chunk::splice(&mut merged, at, c);
        }
        Node::Inner { .. } => unreachable!("split at first-leaf boundary yields a leaf"),
    }
    join_opt(join_opt(l_rest, Some(leaf(merged))), r_rest)
}

/// In-order chunk iterator.
pub(crate) struct Leaves<'a, C> {
    stack: Vec<&'a Node<C>>,
}

impl<'a, C: Chunk> Iterator for Leaves<'a, C> {
    type Item = &'a C;

    fn next(&mut self) -> Option<&'a C> {
        while let Some(n) = self.stack.pop() {
            match n {
                Node::Leaf(c) => return Some(c),
                Node::Inner { left, right, .. } => {
                    self.stack.push(right);
                    self.stack.push(left);
                }
            }
        }
        None
    }
}
