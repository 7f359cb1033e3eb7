//! Generic chunk tree: the shared engine behind [`super::Rope`] and
//! [`super::ChunkTree`].
//!
//! A state is a persistent B+-tree whose **leaves are chunks** —
//! contiguous runs of content bounded by [`Chunk::MAX_WEIGHT`] measured
//! units (characters for text, elements for lists). Every leaf sits at one
//! depth. An inner node holds up to [`FAN`] children and the weight of
//! each in one allocation, and at least [`FAN`]` / 2` of them below the
//! root, so a seek is O(log n) with a short scan per level and the total
//! length is O(1) at the root. A leaf is one [`Arc`] around its chunk and
//! carries no inner node's arrays: a one-leaf tree (a short queue) is one
//! chunk.
//!
//! All nodes live behind [`Arc`]: cloning a tree is O(1) and shares every
//! chunk. Point edits path-copy via [`Arc::make_mut`] — only the O(log n)
//! spine from root to the touched leaf (plus that one chunk) is unshared,
//! which is what makes `Versioned::fork` copy-on-write *sub-structure
//! granular*: a child editing one chunk of a megabyte document deep-copies
//! roughly one chunk. A shared chunk that an insert copies is copied with
//! room for the inserted units.
//!
//! An insert of at most one chunk's worth takes one path-copying descent
//! even when its leaf is full: the leaf splits in place and hands its
//! right half to its parent, an inner node that overflows splits the same
//! way, and a full root grows a level. A delete inside one leaf is
//! classified and made on one descent: it stays in place, or, when it
//! removes the whole leaf, unlinks the leaf in place, and an inner
//! node left with fewer than `FAN / 2` children merges with or borrows
//! from a sibling, so the depth stays O(log n) under any churn.
//!
//! Multi-chunk inserts and deletes that cross leaves cut the tree with
//! `split` and glue the pieces with `join`, which hangs the lower tree
//! off the taller one's spine at its own height (the B-tree
//! join-by-height).

use std::sync::Arc;

/// Children per inner node, at most.
///
/// Sized on the crash recovery's edit script (200 k random-position list
/// edits growing one list to 175 k elements of 64-element chunks), run
/// pinned to one vCPU beside the binary AVL tree this tree replaced, over
/// nine passes: at 16, unshared edits took 0.41–0.54× the AVL tree's time,
/// fork + one edit on the shared 175 k tree 0.93–1.05×, and on a shared
/// 2 048-element tree 0.72–0.95×. Fanout 32 was no faster unshared and
/// 1.08–1.12× slower on the 2 048-element path copies; fanout 8 was about
/// as fast as 16.
pub(crate) const FAN: usize = 16;

/// Children per inner node below the root, at least.
const MIN_FAN: usize = FAN / 2;

/// Children per node that a bottom-up build aims at: three quarters of
/// [`FAN`], so fresh nodes keep room for the splits below them.
const BUILD_FAN: usize = FAN - FAN / 4;

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

    /// A copy with room for `extra` more units, so the splice that made
    /// the copy necessary does not grow it again.
    fn clone_with_room(&self, extra: usize) -> Self;
}

/// Target size for chunks produced when slicing oversized content: half
/// the maximum, so fresh leaves retain headroom for in-place splices.
pub(crate) fn target_weight<C: Chunk>() -> usize {
    (C::MAX_WEIGHT / 2).max(1)
}

/// A subtree: one chunk, or an inner node over subtrees of one height.
#[derive(Debug, Clone)]
enum Node<C> {
    Leaf(Arc<C>),
    Inner(Arc<Inner<C>>),
}

/// An inner node's children, one pointer each: chunks at height 1, inner
/// nodes above. Slots `len..` are empty.
#[derive(Debug, Clone)]
enum Kids<C> {
    Leaves([Option<Arc<C>>; FAN]),
    Inners([Option<Arc<Inner<C>>>; FAN]),
}

/// An inner node: its children and their weights side by side, in one
/// allocation.
#[derive(Debug, Clone)]
struct Inner<C> {
    /// Sum of `weights`.
    weight: usize,
    /// Levels above the leaves: 1 over chunks.
    height: u8,
    len: u8,
    weights: [usize; FAN],
    kids: Kids<C>,
}

impl<C: Chunk> Node<C> {
    fn weight(&self) -> usize {
        match self {
            Node::Leaf(c) => c.weight(),
            Node::Inner(n) => n.weight,
        }
    }

    fn height(&self) -> u8 {
        match self {
            Node::Leaf(_) => 0,
            Node::Inner(n) => n.height,
        }
    }

    /// The inner node, path-copied.
    fn inner_mut(&mut self) -> &mut Inner<C> {
        match self {
            Node::Inner(n) => Arc::make_mut(n),
            Node::Leaf(_) => unreachable!("inner_mut() on a leaf"),
        }
    }

    /// Whether this is an inner node with fewer children than a non-root
    /// node may hold.
    fn is_underfull(&self) -> bool {
        matches!(self, Node::Inner(n) if n.len() < MIN_FAN)
    }
}

fn leaf<C: Chunk>(c: C) -> Node<C> {
    debug_assert!(c.weight() >= 1 && c.weight() <= C::MAX_WEIGHT);
    Node::Leaf(Arc::new(c))
}

/// The child in a slot below `len`.
fn slot<T>(s: &Option<Arc<T>>) -> &T {
    s.as_deref().expect("a slot below len is filled")
}

fn slot_mut<T>(s: &mut Option<T>) -> &mut T {
    s.as_mut().expect("a slot below len is filled")
}

impl<C: Chunk> Inner<C> {
    fn empty(height: u8) -> Self {
        Inner {
            weight: 0,
            height,
            len: 0,
            weights: [0; FAN],
            kids: if height == 1 {
                Kids::Leaves([const { None }; FAN])
            } else {
                Kids::Inners([const { None }; FAN])
            },
        }
    }

    /// A node over `kids` (at most [`FAN`], at least one, of one height).
    fn over(kids: impl IntoIterator<Item = Node<C>>) -> Self {
        let mut kids = kids.into_iter().peekable();
        let height = kids.peek().expect("an inner node has children").height() + 1;
        let mut n = Inner::empty(height);
        for kid in kids {
            n.insert(n.len(), kid);
        }
        n
    }

    fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Child `i`, sharing its allocation.
    fn kid(&self, i: usize) -> Node<C> {
        match &self.kids {
            Kids::Leaves(ls) => Node::Leaf(ls[i].clone().expect("a filled slot")),
            Kids::Inners(ns) => Node::Inner(ns[i].clone().expect("a filled slot")),
        }
    }

    /// Child `i`, an inner node, path-copied.
    fn inner_kid_mut(&mut self, i: usize) -> &mut Inner<C> {
        match &mut self.kids {
            Kids::Inners(ns) => Arc::make_mut(slot_mut(&mut ns[i])),
            Kids::Leaves(_) => unreachable!("inner_kid_mut() over chunks"),
        }
    }

    /// The child holding weight-position `pos` (`pos < weight`) and the
    /// offset of `pos` in it.
    fn find(&self, mut pos: usize) -> (usize, usize) {
        let mut i = 0;
        while pos >= self.weights[i] {
            pos -= self.weights[i];
            i += 1;
        }
        (i, pos)
    }

    /// [`Inner::find`] for an insert (`pos ≤ weight`): a position on a
    /// boundary between two children goes to the left one.
    fn find_insert(&self, mut pos: usize) -> (usize, usize) {
        let mut i = 0;
        while pos > self.weights[i] && i + 1 < self.len() {
            pos -= self.weights[i];
            i += 1;
        }
        (i, pos)
    }

    /// Re-read child `i`'s weight after an edit below it.
    fn refresh(&mut self, i: usize) {
        let w = match &self.kids {
            Kids::Leaves(ls) => slot(&ls[i]).weight(),
            Kids::Inners(ns) => slot(&ns[i]).weight,
        };
        self.weight = self.weight - self.weights[i] + w;
        self.weights[i] = w;
    }

    /// Rotate slots `range` (children and weights) one to the right, or
    /// to the left.
    fn rotate(&mut self, range: std::ops::Range<usize>, right: bool) {
        fn rotate<T>(s: &mut [T], right: bool) {
            if right {
                s.rotate_right(1);
            } else {
                s.rotate_left(1);
            }
        }
        match &mut self.kids {
            Kids::Leaves(ls) => rotate(&mut ls[range.clone()], right),
            Kids::Inners(ns) => rotate(&mut ns[range.clone()], right),
        }
        rotate(&mut self.weights[range], right);
    }

    /// Empty slot `i` and return its child; the weights are the caller's.
    fn take(&mut self, i: usize) -> Node<C> {
        match &mut self.kids {
            Kids::Leaves(ls) => Node::Leaf(ls[i].take().expect("a filled slot")),
            Kids::Inners(ns) => Node::Inner(ns[i].take().expect("a filled slot")),
        }
    }

    /// Put `node` in slot `i`, shifting the later ones right; the node
    /// must have room.
    fn insert(&mut self, i: usize, node: Node<C>) {
        let len = self.len();
        debug_assert!(len < FAN && i <= len);
        let w = node.weight();
        self.rotate(i..len + 1, true);
        match (&mut self.kids, node) {
            (Kids::Leaves(ls), Node::Leaf(c)) => ls[i] = Some(c),
            (Kids::Inners(ns), Node::Inner(n)) => ns[i] = Some(n),
            _ => unreachable!("a child one level below its node"),
        }
        self.weights[i] = w;
        self.weight += w;
        self.len += 1;
    }

    /// Take the child in slot `i` out, shifting the later ones left.
    fn remove(&mut self, i: usize) -> Node<C> {
        let node = self.take(i);
        self.weight -= self.weights[i];
        self.rotate(i..self.len(), false);
        self.len -= 1;
        node
    }

    /// [`Inner::insert`], splitting a full node first: the halves keep at
    /// least [`MIN_FAN`] children each, and the right one is returned for
    /// the parent to take.
    fn insert_or_split(&mut self, i: usize, node: Node<C>) -> Option<Node<C>> {
        if self.len() < FAN {
            self.insert(i, node);
            return None;
        }
        let half = FAN / 2;
        let mut right = Inner::empty(self.height);
        let at = if i <= half { half } else { half + 1 };
        for s in at..FAN {
            let kid = self.take(s);
            self.weight -= self.weights[s];
            right.insert(right.len(), kid);
        }
        self.len = at as u8;
        if i <= half {
            self.insert(i, node);
        } else {
            right.insert(i - at, node);
        }
        Some(Node::Inner(Arc::new(right)))
    }
}

/// Even out two adjacent siblings of one height: `r`'s children move into
/// `l` when both fit one node (returns `true`, leaving `r` empty);
/// otherwise children move across until each holds at least [`MIN_FAN`].
fn rebalance<C: Chunk>(l: &mut Inner<C>, r: &mut Inner<C>) -> bool {
    let total = l.len() + r.len();
    let keep = if total <= FAN { total } else { total / 2 };
    while l.len() < keep {
        let kid = r.remove(0);
        l.insert(l.len(), kid);
    }
    while l.len() > keep {
        let kid = l.remove(l.len() - 1);
        r.insert(0, kid);
    }
    r.len() == 0
}

/// Concatenate two trees, preserving order: the lower one hangs off the
/// taller one's facing spine at its own height.
fn join<C: Chunk>(l: Option<Node<C>>, r: Option<Node<C>>) -> Option<Node<C>> {
    let (mut l, mut r) = match (l, r) {
        (None, x) | (x, None) => return x,
        (Some(l), Some(r)) => (l, r),
    };
    let (hl, hr) = (l.height(), r.height());
    let (a, b) = if hl > hr {
        match attach_back(l.inner_mut(), r, hr) {
            None => return Some(l),
            Some(sib) => (l, sib),
        }
    } else if hr > hl {
        match attach_front(r.inner_mut(), l, hl) {
            None => return Some(r),
            Some(sib) => (r, sib),
        }
    } else if hl > 0 && rebalance(l.inner_mut(), r.inner_mut()) {
        return Some(l);
    } else {
        (l, r)
    };
    Some(Node::Inner(Arc::new(Inner::over([a, b]))))
}

/// Hang `r` (of height `h`, below `n`'s) after `n`'s last subtree of
/// height `h`; a split on the way up returns the new right sibling of `n`.
fn attach_back<C: Chunk>(n: &mut Inner<C>, mut r: Node<C>, h: u8) -> Option<Node<C>> {
    let last = n.len() - 1;
    if n.height > h + 1 {
        let sib = attach_back(n.inner_kid_mut(last), r, h);
        n.refresh(last);
        return sib.and_then(|s| n.insert_or_split(last + 1, s));
    }
    if r.is_underfull() {
        let merged = rebalance(n.inner_kid_mut(last), r.inner_mut());
        n.refresh(last);
        if merged {
            return None;
        }
    }
    n.insert_or_split(last + 1, r)
}

/// Mirror of [`attach_back`]: hang `l` before `n`'s first subtree of
/// height `h`.
fn attach_front<C: Chunk>(n: &mut Inner<C>, mut l: Node<C>, h: u8) -> Option<Node<C>> {
    if n.height > h + 1 {
        let sib = attach_front(n.inner_kid_mut(0), l, h);
        n.refresh(0);
        return sib.and_then(|s| n.insert_or_split(1, s));
    }
    if l.is_underfull() {
        if rebalance(l.inner_mut(), n.inner_kid_mut(0)) {
            // `l` took every child of the first subtree: it takes its slot.
            n.remove(0);
            n.insert(0, l);
            return None;
        }
        n.refresh(0);
    }
    n.insert_or_split(0, l)
}

/// A tree over children `range` of `n`: none, the one child, or a fresh
/// node over them.
fn node_over<C: Chunk>(n: &Inner<C>, range: std::ops::Range<usize>) -> Option<Node<C>> {
    match range.len() {
        0 => None,
        1 => Some(n.kid(range.start)),
        _ => Some(Node::Inner(Arc::new(Inner::over(range.map(|i| n.kid(i)))))),
    }
}

/// Split at weight-position `pos` into `[0, pos)` and `[pos, weight)`.
/// A leaf straddling the cut is copied and split via [`Chunk::split_off`].
#[allow(clippy::type_complexity)]
fn split<C: Chunk>(n: &Node<C>, pos: usize) -> (Option<Node<C>>, Option<Node<C>>) {
    if pos == 0 {
        return (None, Some(n.clone()));
    }
    if pos == n.weight() {
        return (Some(n.clone()), None);
    }
    match n {
        Node::Leaf(c) => {
            // Fully qualified: `Vec<T>` has inherent `split_off`/`splice`
            // that would otherwise shadow the `Chunk` methods.
            let mut a = C::clone(c);
            let b = Chunk::split_off(&mut a, pos);
            (Some(leaf(a)), Some(leaf(b)))
        }
        Node::Inner(inner) => {
            let (i, off) = inner.find(pos);
            if off == 0 {
                return (node_over(inner, 0..i), node_over(inner, i..inner.len()));
            }
            let (a, b) = split(&inner.kid(i), off);
            (
                join(node_over(inner, 0..i), a),
                join(b, node_over(inner, i + 1..inner.len())),
            )
        }
    }
}

/// A tree over `level`, built bottom-up: each level groups the one below
/// into nodes of [`BUILD_FAN`] children or slightly fewer. O(n).
fn build<C: Chunk>(mut level: Vec<Node<C>>) -> Option<Node<C>> {
    while level.len() > 1 {
        let n = level.len();
        let parents = if n <= FAN { 1 } else { n.div_ceil(BUILD_FAN) };
        let mut kids = level.into_iter();
        level = (0..parents)
            .map(|p| {
                let take = n / parents + usize::from(p < n % parents);
                Node::Inner(Arc::new(Inner::over(kids.by_ref().take(take))))
            })
            .collect();
    }
    level.pop()
}

/// A chunk tree; `None` is the empty state.
#[derive(Debug, Clone)]
pub(crate) struct Tree<C> {
    root: Option<Node<C>>,
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
        let leaves = chunks
            .into_iter()
            .flat_map(slice_to_pieces)
            .map(leaf)
            .collect();
        Tree {
            root: build(leaves),
        }
    }

    pub(crate) fn weight(&self) -> usize {
        self.root.as_ref().map_or(0, Node::weight)
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
        let mid = build(slice_to_pieces(content).into_iter().map(leaf).collect());
        self.root = match self.root.take() {
            None => mid,
            Some(r) => {
                let (l, rr) = split(&r, pos);
                // Dropped before the joins, so they edit the pieces in place.
                drop(r);
                join(join(l, mid), rr)
            }
        };
    }

    /// [`Tree::insert`]'s one-descent path on its own: path-copy down to
    /// the leaf owning `pos` and let `splice` put `weight` units in at the
    /// in-leaf offset, so content the caller only borrows is copied once,
    /// straight into a leaf. A leaf that cannot absorb them splits in
    /// place into two halves (the leaf keeps its allocation for the first
    /// one), and each inner node on the way back up that overflows splits
    /// too. Returns `false`, touching nothing, for an empty tree or more
    /// than [`Chunk::MAX_WEIGHT`] units.
    pub(crate) fn insert_in_leaf(
        &mut self,
        pos: usize,
        weight: usize,
        splice: impl FnOnce(&mut C, usize),
    ) -> bool {
        debug_assert!(pos <= self.weight());
        let sib = match &mut self.root {
            Some(Node::Leaf(c)) if weight <= C::MAX_WEIGHT => {
                insert_into_leaf(c, pos, weight, splice).map(Node::Leaf)
            }
            Some(Node::Inner(n)) if weight <= C::MAX_WEIGHT => {
                insert_in_place(Arc::make_mut(n), pos, weight, splice)
            }
            _ => return false,
        };
        if let Some(sib) = sib {
            self.grow(sib);
        }
        true
    }

    /// A new root over the old one and `sib`, its new right sibling.
    fn grow(&mut self, sib: Node<C>) {
        let old = self.root.take().expect("a split root exists");
        self.root = Some(Node::Inner(Arc::new(Inner::over([old, sib]))));
    }

    /// Delete the `len` units starting at `pos` (`pos + len ≤ weight`).
    ///
    /// A range inside a single leaf takes one path-copying descent
    /// ([`Tree::delete_in_leaf`]). Otherwise the tree is split around the
    /// range; the two boundary chunks at the seam are coalesced when their
    /// combined weight fits one chunk, bounding fragmentation under delete
    /// churn.
    pub(crate) fn delete(&mut self, pos: usize, len: usize) {
        debug_assert!(pos + len <= self.weight());
        if len == 0 {
            return;
        }
        let in_leaf = self.delete_in_leaf(pos, len, |c, off| c.remove_range(off, len));
        if !matches!(in_leaf, InLeaf::Crosses) {
            return;
        }
        let taken = self.root.take().expect("non-empty checked above");
        let (l, rest) = split(&taken, pos);
        // Each cut tree is dropped as soon as it is cut, so the pieces
        // hold their subtrees alone and the seam merge edits them in place.
        drop(taken);
        let (_, rr) = split(rest.as_ref().expect("len > 0"), len);
        drop(rest);
        *self = Tree::concat_merging_seam(Tree { root: l }, Tree { root: rr });
    }

    /// Delete the `len ≥ 1` units starting at `pos` if they lie inside one
    /// leaf, classified on the path-copying descent that deletes them:
    /// `edit` removes them (at the in-leaf offset) from a leaf that keeps
    /// units, and a leaf they cover is unlinked and handed back.
    pub(crate) fn delete_in_leaf<R>(
        &mut self,
        pos: usize,
        len: usize,
        edit: impl FnOnce(&mut C, usize) -> R,
    ) -> InLeaf<C, R> {
        debug_assert!(len > 0 && pos + len <= self.weight());
        match self.root.as_mut().expect("len > 0 implies non-empty") {
            Node::Leaf(c) if len < c.weight() => InLeaf::Edited(leaf_mut(c, pos, edit)),
            Node::Leaf(_) => match self.root.take() {
                Some(Node::Leaf(c)) => InLeaf::Unlinked(c),
                _ => unreachable!("the root was a leaf"),
            },
            Node::Inner(n) => {
                let done = delete_rec(n, pos, len, edit);
                if n.len() == 1 {
                    self.root = Some(Arc::make_mut(n).remove(0));
                }
                done
            }
        }
    }

    /// The chunk containing weight-position `pos` (`pos < weight`) and the
    /// offset of `pos` within it.
    pub(crate) fn leaf_at(&self, pos: usize) -> (&C, usize) {
        debug_assert!(pos < self.weight());
        let mut n = match self.root.as_ref().expect("pos < weight implies non-empty") {
            Node::Leaf(c) => return (c, pos),
            Node::Inner(n) => &**n,
        };
        let mut off = pos;
        loop {
            let (i, rest) = n.find(off);
            off = rest;
            match &n.kids {
                Kids::Leaves(ls) => return (slot(&ls[i]), off),
                Kids::Inners(ns) => n = slot(&ns[i]),
            }
        }
    }

    /// Run `f` against the chunk containing `pos` (path-copied), passing
    /// the in-chunk offset. `f` may change the chunk's weight (but must
    /// keep it within `1..=MAX_WEIGHT`); cached weights on the spine are
    /// fixed up afterwards.
    pub(crate) fn with_leaf_mut<R>(&mut self, pos: usize, f: impl FnOnce(&mut C, usize) -> R) -> R {
        debug_assert!(pos < self.weight());
        match self.root.as_mut().expect("pos < weight implies non-empty") {
            Node::Leaf(c) => leaf_mut(c, pos, f),
            Node::Inner(n) => leaf_mut_rec(Arc::make_mut(n), pos, f),
        }
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
        match &self.root {
            _ if len == 0 => {}
            Some(Node::Leaf(c)) => f(c, pos, pos + len),
            Some(Node::Inner(n)) => for_each_rec(n, pos, len, &mut f),
            None => {}
        }
    }

    /// In-order iterator over the chunks.
    pub(crate) fn leaves(&self) -> Leaves<'_, C> {
        let (only, stack) = match &self.root {
            Some(Node::Inner(n)) => (None, vec![(&**n, 0)]),
            Some(Node::Leaf(c)) => (Some(&**c), Vec::new()),
            None => (None, Vec::new()),
        };
        Leaves { only, stack }
    }

    /// Whether `self` and `other` hold one root (or are both empty): a
    /// clone of the other that neither side has edited since.
    pub(crate) fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (Some(Node::Leaf(a)), Some(Node::Leaf(b))) => Arc::ptr_eq(a, b),
            (Some(Node::Inner(a)), Some(Node::Inner(b))) => Arc::ptr_eq(a, b),
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
    pub(crate) fn fold_unshared(&self, other: &Self, f: impl FnMut(&C) -> usize) -> usize {
        let theirs: std::collections::HashSet<*const C> =
            other.leaves().map(std::ptr::from_ref).collect();
        self.leaves()
            .filter(|c| !theirs.contains(&std::ptr::from_ref(*c)))
            .map(f)
            .sum()
    }

    /// Validate the structural invariants: every leaf at one depth, node
    /// occupancy, cached weights and chunk size bounds. Test support;
    /// panics on violation.
    #[doc(hidden)]
    pub(crate) fn check_invariants(&self) {
        fn chunk<C: Chunk>(c: &C) -> usize {
            assert!(
                c.weight() >= 1 && c.weight() <= C::MAX_WEIGHT,
                "leaf weight {} outside 1..={}",
                c.weight(),
                C::MAX_WEIGHT
            );
            c.weight()
        }
        fn walk<C: Chunk>(n: &Inner<C>, root: bool) -> usize {
            let min = if root { 2 } else { MIN_FAN };
            assert!(
                (min..=FAN).contains(&n.len()),
                "inner node of {} children outside {min}..={FAN}",
                n.len()
            );
            let weights: Vec<usize> = match &n.kids {
                Kids::Leaves(ls) => {
                    assert_eq!(n.height, 1, "leaves at different depths");
                    assert!(ls[n.len()..].iter().all(Option::is_none), "a slot past len");
                    ls[..n.len()].iter().map(|c| chunk(slot(c))).collect()
                }
                Kids::Inners(ns) => {
                    assert!(ns[n.len()..].iter().all(Option::is_none), "a slot past len");
                    let kids = ns[..n.len()].iter().map(slot);
                    kids.map(|k| {
                        assert_eq!(k.height + 1, n.height, "leaves at different depths");
                        walk(k, false)
                    })
                    .collect()
                }
            };
            assert_eq!(n.weights[..n.len()], weights, "stale cached weight");
            assert_eq!(n.weight, weights.iter().sum(), "stale cached total");
            n.weight
        }
        match &self.root {
            Some(Node::Leaf(c)) => {
                chunk(&**c);
            }
            Some(Node::Inner(n)) => {
                walk(n, true);
            }
            None => {}
        }
    }

    /// Join two trees, coalescing the two chunks adjacent to the seam when
    /// their combined weight fits a single chunk: `r`'s first leaf is
    /// unlinked and spliced onto the end of `l`'s last.
    fn concat_merging_seam(mut l: Tree<C>, mut r: Tree<C>) -> Tree<C> {
        if l.is_empty() || r.is_empty() {
            return Tree {
                root: l.root.or(r.root),
            };
        }
        let lw = l.weight();
        let width = r.leaf_at(0).0.weight();
        if l.leaf_at(lw - 1).0.weight() + width <= C::MAX_WEIGHT {
            // A whole leaf is unlinked, never edited.
            let InLeaf::Unlinked(first) = r.delete_in_leaf(0, width, |_, _| ()) else {
                unreachable!("a whole leaf unlinks")
            };
            l.with_leaf_mut(lw - 1, |c, _| {
                let at = c.weight();
                Chunk::splice(c, at, &first);
            });
        }
        Tree {
            root: join(l.root, r.root),
        }
    }

    /// Levels of inner nodes above the leaves (0 for a one-leaf tree).
    #[cfg(test)]
    fn height(&self) -> u8 {
        self.root.as_ref().map_or(0, Node::height)
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

/// Path-copying insert of `extra ≤ MAX_WEIGHT` units, which `splice` puts
/// into the leaf owning `pos` (a boundary position resolves to the left
/// neighbour). A leaf that would overflow splits into two halves and a
/// node that then overflows splits too; the new right sibling of `n`, if
/// any, is returned for `n`'s parent to take.
fn insert_in_place<C: Chunk>(
    n: &mut Inner<C>,
    pos: usize,
    extra: usize,
    splice: impl FnOnce(&mut C, usize),
) -> Option<Node<C>> {
    let (i, off) = n.find_insert(pos);
    let sib = match &mut n.kids {
        Kids::Leaves(ls) => {
            insert_into_leaf(slot_mut(&mut ls[i]), off, extra, splice).map(Node::Leaf)
        }
        Kids::Inners(ns) => {
            insert_in_place(Arc::make_mut(slot_mut(&mut ns[i])), off, extra, splice)
        }
    };
    n.refresh(i);
    sib.and_then(|s| n.insert_or_split(i + 1, s))
}

/// [`insert_in_place`] at the leaf: a shared chunk is copied with room
/// for the `extra` units first. Returns the second half of a chunk that
/// split.
fn insert_into_leaf<C: Chunk>(
    c: &mut Arc<C>,
    at: usize,
    extra: usize,
    splice: impl FnOnce(&mut C, usize),
) -> Option<Arc<C>> {
    let second = if let Some(c) = Arc::get_mut(c) {
        splice_or_split(c, at, extra, splice)
    } else {
        let mut copy = c.clone_with_room(extra);
        let second = splice_or_split(&mut copy, at, extra, splice);
        *c = Arc::new(copy);
        second
    };
    second.map(Arc::new)
}

/// Put `extra` units into `c` at `at` through `splice`; a chunk that
/// cannot hold them splits, and its second half is returned.
fn splice_or_split<C: Chunk>(
    c: &mut C,
    at: usize,
    extra: usize,
    splice: impl FnOnce(&mut C, usize),
) -> Option<C> {
    if c.weight() + extra <= C::MAX_WEIGHT {
        splice(c, at);
        None
    } else {
        Some(splice_and_split(c, at, extra, splice))
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

/// What [`Tree::delete_in_leaf`] did.
pub(crate) enum InLeaf<C, R> {
    /// The range lay inside a leaf that keeps units: `edit`'s answer.
    Edited(R),
    /// The range was a whole leaf, now unlinked.
    Unlinked(Arc<C>),
    /// The range crosses a leaf boundary; nothing was deleted.
    Crosses,
}

/// [`Tree::delete_in_leaf`] below `n`, leaving a node whose children the
/// range crosses as it is. A child left with fewer than [`MIN_FAN`]
/// children merges with or borrows from a sibling.
fn delete_rec<C: Chunk, R>(
    n: &mut Arc<Inner<C>>,
    pos: usize,
    len: usize,
    edit: impl FnOnce(&mut C, usize) -> R,
) -> InLeaf<C, R> {
    let (i, off) = n.find(pos);
    if off + len > n.weights[i] {
        return InLeaf::Crosses;
    }
    let n = Arc::make_mut(n);
    let done = match &mut n.kids {
        Kids::Leaves(ls) if len < n.weights[i] => {
            InLeaf::Edited(leaf_mut(slot_mut(&mut ls[i]), off, edit))
        }
        Kids::Leaves(_) => match n.remove(i) {
            Node::Leaf(c) => return InLeaf::Unlinked(c),
            Node::Inner(_) => unreachable!("a leaf slot"),
        },
        Kids::Inners(ns) => delete_rec(slot_mut(&mut ns[i]), off, len, edit),
    };
    n.refresh(i);
    if matches!(&n.kids, Kids::Inners(ns) if slot(&ns[i]).len() < MIN_FAN) {
        repair(n, i);
    }
    done
}

/// Even out `n`'s underfull child `i` with a sibling: merge the two when
/// they fit one node, else move children across.
fn repair<C: Chunk>(n: &mut Inner<C>, i: usize) {
    let j = if i + 1 < n.len() { i } else { i - 1 };
    let Kids::Inners(ns) = &mut n.kids else {
        unreachable!("repair() over chunks")
    };
    let (left, right) = ns.split_at_mut(j + 1);
    let l = Arc::make_mut(slot_mut(&mut left[j]));
    let r = Arc::make_mut(slot_mut(&mut right[0]));
    if rebalance(l, r) {
        n.remove(j + 1);
    } else {
        n.refresh(j + 1);
    }
    n.refresh(j);
}

/// Run `f` on the chunk `c` (path-copied) at offset `off`.
fn leaf_mut<C: Chunk, R>(c: &mut Arc<C>, off: usize, f: impl FnOnce(&mut C, usize) -> R) -> R {
    let c = Arc::make_mut(c);
    let r = f(c, off);
    debug_assert!(c.weight() >= 1 && c.weight() <= C::MAX_WEIGHT);
    r
}

/// Mutating point access: path-copy down to the leaf holding `pos`, run
/// `f` there and fix cached weights on the way back up.
fn leaf_mut_rec<C: Chunk, R>(
    n: &mut Inner<C>,
    pos: usize,
    f: impl FnOnce(&mut C, usize) -> R,
) -> R {
    let (i, off) = n.find(pos);
    let r = match &mut n.kids {
        Kids::Leaves(ls) => leaf_mut(slot_mut(&mut ls[i]), off, f),
        Kids::Inners(ns) => leaf_mut_rec(Arc::make_mut(slot_mut(&mut ns[i])), off, f),
    };
    n.refresh(i);
    r
}

fn for_each_rec<C: Chunk>(
    n: &Inner<C>,
    pos: usize,
    len: usize,
    f: &mut impl FnMut(&C, usize, usize),
) {
    let (mut i, mut off) = n.find(pos);
    let mut left = len;
    loop {
        let take = left.min(n.weights[i] - off);
        match &n.kids {
            Kids::Leaves(ls) => f(slot(&ls[i]), off, off + take),
            Kids::Inners(ns) => for_each_rec(slot(&ns[i]), off, take, f),
        }
        left -= take;
        if left == 0 {
            return;
        }
        i += 1;
        off = 0;
    }
}

/// In-order chunk iterator.
pub(crate) struct Leaves<'a, C> {
    /// The root of a one-leaf tree.
    only: Option<&'a C>,
    /// Each inner node on the current path, with its next child's slot.
    stack: Vec<(&'a Inner<C>, usize)>,
}

impl<'a, C: Chunk> Iterator for Leaves<'a, C> {
    type Item = &'a C;

    fn next(&mut self) -> Option<&'a C> {
        if let Some(c) = self.only.take() {
            return Some(c);
        }
        loop {
            let top = self.stack.last_mut()?;
            let (n, i) = *top;
            if i == n.len() {
                self.stack.pop();
                continue;
            }
            top.1 += 1;
            match &n.kids {
                Kids::Leaves(ls) => return Some(slot(&ls[i])),
                Kids::Inners(ns) => self.stack.push((slot(&ns[i]), 0)),
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    /// A chunk of at most two units: a few hundred units already make a
    /// tree four levels deep at the production [`FAN`].
    #[derive(Debug, Clone)]
    struct Tiny(Vec<u32>);

    impl Chunk for Tiny {
        const MAX_WEIGHT: usize = 2;

        fn weight(&self) -> usize {
            self.0.len()
        }

        fn split_off(&mut self, at: usize) -> Self {
            Tiny(self.0.split_off(at))
        }

        fn splice(&mut self, at: usize, other: &Self) {
            self.0.splice(at..at, other.0.iter().copied());
        }

        fn remove_range(&mut self, at: usize, len: usize) {
            self.0.drain(at..at + len);
        }

        fn into_pieces(self, target: usize) -> Vec<Self> {
            self.0.chunks(target).map(|c| Tiny(c.to_vec())).collect()
        }

        fn clone_with_room(&self, extra: usize) -> Self {
            let mut copy = Vec::with_capacity(self.0.len() + extra);
            copy.extend_from_slice(&self.0);
            Tiny(copy)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Edit {
        /// Insert this many fresh units at a position: up to
        /// `MAX_WEIGHT` take the one-descent path, more the split / join.
        Insert(usize, usize),
        /// Delete a range.
        Delete(usize, usize),
    }

    /// Apply `edit` to the tree and to its `Vec` oracle; inserted units
    /// are numbered from `next` on, so every unit is distinct.
    fn apply(t: &mut Tree<Tiny>, model: &mut Vec<u32>, edit: Edit, next: &mut u32) {
        match edit {
            Edit::Insert(pos, n) => {
                let units: Vec<u32> = (*next..).take(n).collect();
                *next += n as u32;
                t.insert(pos, Tiny(units.clone()));
                model.splice(pos..pos, units);
            }
            Edit::Delete(pos, n) => {
                t.delete(pos, n);
                model.drain(pos..pos + n);
            }
        }
    }

    /// The tree holds `model`, reads it back by position, and keeps every
    /// structural invariant.
    fn check(t: &Tree<Tiny>, model: &[u32]) {
        t.check_invariants();
        assert_eq!(t.weight(), model.len());
        assert_eq!(t.is_empty(), model.is_empty());
        assert!(
            t.leaves().flat_map(|c| &c.0).eq(model),
            "streamed units differ from the model"
        );
        for pos in [0, model.len() / 2, model.len().saturating_sub(1)] {
            if pos < model.len() {
                let (c, off) = t.leaf_at(pos);
                assert_eq!(c.0[off], model[pos], "leaf_at({pos})");
            }
        }
    }

    /// A base of `len` units, one leaf each.
    fn base(len: u32) -> (Tree<Tiny>, Vec<u32>) {
        let model: Vec<u32> = (0..len).collect();
        (Tree::from_chunks([Tiny(model.clone())]), model)
    }

    /// The most levels of inner nodes a tree over `leaves` chunks may
    /// have: a root of two children and [`MIN_FAN`] below it.
    fn height_bound(leaves: usize) -> u8 {
        let (mut height, mut fewest) = (0, 2);
        while fewest <= leaves {
            height += 1;
            fewest *= MIN_FAN;
        }
        height
    }

    /// A 64-bit LCG: seeded, no dependencies.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// Every edit the exhaustive walk tries on a `len`-unit state: one
    /// unit (the one-descent path) and one unit more than a chunk holds
    /// (the split / join path) inserted at every position, and a one-unit
    /// and a chunk-crossing range deleted at every position.
    fn edits(len: usize) -> impl Iterator<Item = Edit> {
        let widths = [1, Tiny::MAX_WEIGHT + 1];
        let inserts = widths
            .into_iter()
            .flat_map(move |n| (0..=len).map(move |p| Edit::Insert(p, n)));
        let deletes = widths
            .into_iter()
            .flat_map(move |n| (0..(len + 1).saturating_sub(n)).map(move |p| Edit::Delete(p, n)));
        inserts.chain(deletes)
    }

    /// Depth-first over every sequence of up to `depth` edits from
    /// (`t`, `model`); each edit lands on a clone, so the state it forked
    /// from must come through unchanged. Returns the sequences tried and
    /// the most levels of inner nodes any state reached.
    fn explore(t: &Tree<Tiny>, model: &[u32], depth: usize, next: &mut u32) -> (usize, u8) {
        let (mut tried, mut tallest) = (0, t.height());
        if depth == 0 {
            return (tried, tallest);
        }
        for edit in edits(model.len()) {
            let (mut child, mut child_model) = (t.clone(), model.to_vec());
            apply(&mut child, &mut child_model, edit, next);
            check(&child, &child_model);
            let (below, height) = explore(&child, &child_model, depth - 1, next);
            tried += 1 + below;
            tallest = tallest.max(height);
        }
        check(t, model);
        (tried, tallest)
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only: 4·10⁶ edit sequences")]
    fn every_four_edit_sequence_over_a_small_base_matches_a_vec() {
        let (mut tried, mut tallest) = (0, 0);
        let mut next = 1_000;
        for len in 0..=8 {
            let (t, model) = base(len);
            check(&t, &model);
            let (n, height) = explore(&t, &model, 4, &mut next);
            tried += n;
            tallest = tallest.max(height);
        }
        assert_eq!(tried, 4_224_641, "sequences tried");
        // Four runs of three into eight units make 20 leaves: the root
        // splits, so inner-node splits and joins are in the walk.
        assert_eq!(tallest, 2, "levels of inner nodes reached");
    }

    /// `steps` random edits from an empty tree, checked after each one,
    /// with a clone taken every 100 edits that must come through the next
    /// hundred unchanged. Lengths hover around `around` units.
    fn random_run(seed: u64, steps: usize, around: usize) -> u8 {
        let mut rng = Lcg(seed);
        let (mut t, mut model) = (Tree::new(), Vec::new());
        let mut next = 0;
        let mut snapshot = (Tree::new(), Vec::new());
        let mut tallest = 0;
        for step in 0..steps {
            let len = model.len();
            let edit = if len == 0 || rng.below(2 * around) >= len {
                // Mostly one chunk or less; now and then a long run.
                let n = if rng.below(50) == 0 {
                    20 + rng.below(100)
                } else {
                    1 + rng.below(4)
                };
                Edit::Insert(rng.below(len + 1), n)
            } else {
                let n = 1 + rng.below(len.min(6));
                Edit::Delete(rng.below(len - n + 1), n)
            };
            apply(&mut t, &mut model, edit, &mut next);
            check(&t, &model);
            tallest = tallest.max(t.height());
            if step % 100 == 0 {
                check(&snapshot.0, &snapshot.1);
                snapshot = (t.clone(), model.clone());
            }
        }
        let (from, n) = (model.len() / 3, model.len() / 2);
        let mut ranged = Vec::new();
        t.for_each_in_range(from, n, |c, s, e| ranged.extend_from_slice(&c.0[s..e]));
        assert_eq!(ranged, model[from..from + n]);
        tallest
    }

    #[test]
    fn seeded_random_edits_match_a_vec() {
        for seed in [1, 2, 3, 4] {
            let tallest = random_run(seed, 10_000, 300);
            // Leaves four deep: three levels of inner nodes.
            assert!(tallest >= 3, "seed {seed}: {tallest} levels of inner nodes");
        }
    }

    #[test]
    fn churn_keeps_the_height_logarithmic() {
        let mut rng = Lcg(7);
        let mut t = Tree::new();
        for i in 0..100_000u32 {
            t.insert(rng.below(t.weight() + 1), Tiny(vec![i]));
        }
        t.check_invariants();
        assert!(t.height() >= 4, "{} levels", t.height());
        let mut step = 0;
        while t.weight() > 3 {
            t.delete(rng.below(t.weight()), 1);
            step += 1;
            if step % 1_000 == 0 {
                t.check_invariants();
                assert!(t.height() <= height_bound(t.leaf_count()));
            }
        }
        t.check_invariants();
        assert!(t.height() <= 1, "{} levels over three units", t.height());
    }

    /// The most children of any inner node below the root.
    fn fullest_below_root(t: &Tree<Tiny>) -> usize {
        fn walk(n: &Inner<Tiny>) -> usize {
            match &n.kids {
                Kids::Leaves(_) => 0,
                Kids::Inners(ns) => ns
                    .iter()
                    .flatten()
                    .map(|k| k.len().max(walk(k)))
                    .max()
                    .unwrap_or(0),
            }
        }
        match &t.root {
            Some(Node::Inner(n)) => walk(n),
            _ => 0,
        }
    }

    #[test]
    fn a_bottom_up_build_leaves_room_in_every_node() {
        for leaves in [0, 1, 2, 16, 17, 24, 25, 100, 192, 193, 3_000] {
            let units: Vec<u32> = (0..leaves).collect();
            let t = Tree::from_chunks(units.iter().map(|&u| Tiny(vec![u])));
            check(&t, &units);
            assert!(t.height() <= height_bound(leaves as usize));
            assert!(fullest_below_root(&t) <= BUILD_FAN, "{leaves} leaves");
        }
    }
}
