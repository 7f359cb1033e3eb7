//! [`Rope`]: chunked UTF-8 text with O(1) char length and O(log n) edits.

use super::tree::{Chunk, Leaves, Tree};

/// One contiguous run of text plus its cached char count, so the tree
/// can seek by character position without scanning bytes. A chunk whose
/// byte length equals its char count is ASCII, so a char offset in it
/// *is* a byte offset; any other chunk scans its char boundaries.
#[derive(Debug, Clone)]
pub(crate) struct TextChunk {
    text: String,
    chars: usize,
}

impl TextChunk {
    fn from_str(s: &str) -> Self {
        TextChunk {
            text: s.to_string(),
            chars: s.chars().count(),
        }
    }

    /// Byte offset `n` chars past byte offset `from` (a char boundary;
    /// the chars must exist).
    fn advance(&self, from: usize, n: usize) -> usize {
        if self.text.len() == self.chars {
            return from + n;
        }
        let rest = &self.text[from..];
        from + rest.char_indices().nth(n).map_or(rest.len(), |(b, _)| b)
    }

    /// The sub-slice covering char-positions `[start, end)`.
    fn slice_chars(&self, start: usize, end: usize) -> &str {
        let b0 = self.advance(0, start);
        &self.text[b0..self.advance(b0, end - start)]
    }
}

impl Chunk for TextChunk {
    const MAX_WEIGHT: usize = 1024;

    fn weight(&self) -> usize {
        self.chars
    }

    fn split_off(&mut self, at: usize) -> Self {
        let text = self.text.split_off(self.advance(0, at));
        let chars = self.chars - at;
        self.chars = at;
        TextChunk { text, chars }
    }

    fn splice(&mut self, at: usize, other: &Self) {
        let b = self.advance(0, at);
        self.text.insert_str(b, &other.text);
        self.chars += other.chars;
    }

    fn remove_range(&mut self, at: usize, len: usize) {
        let b0 = self.advance(0, at);
        let b1 = self.advance(b0, len);
        self.text.replace_range(b0..b1, "");
        self.chars -= len;
    }

    fn into_pieces(self, target: usize) -> Vec<Self> {
        // One pass over char boundaries instead of re-splitting the tail.
        let mut pieces = Vec::with_capacity(self.chars / target + 1);
        let (mut start, mut chars) = (0usize, 0usize);
        for (b, _) in self.text.char_indices() {
            if chars == target {
                pieces.push(TextChunk::from_str(&self.text[start..b]));
                start = b;
                chars = 0;
            }
            chars += 1;
        }
        if start < self.text.len() || pieces.is_empty() {
            pieces.push(TextChunk::from_str(&self.text[start..]));
        }
        pieces
    }

    fn clone_with_room(&self, extra: usize) -> Self {
        // A unit is a char: `extra` bytes is the room ASCII needs, and a
        // multi-byte insert grows the copy once more.
        let mut text = String::with_capacity(self.text.len() + extra);
        text.push_str(&self.text);
        TextChunk {
            text,
            chars: self.chars,
        }
    }
}

/// Chunked, char-counted text: the [`crate::text::TextOp`] state backend.
///
/// A B+-tree of `Arc`-shared chunks (≤ 1024 chars each, up to 16
/// children per inner node) with char counts cached in every node, so
/// [`Rope::char_len`] is O(1) and [`Rope::insert`] / [`Rope::delete`]
/// are O(log n) seek + O(chunk) splice instead of rescanning the whole
/// string. Inside an ASCII chunk
/// (byte length = char count) a char offset is a byte offset; only a
/// chunk holding multi-byte chars scans to find one. Cloning is O(1) and
/// shares every chunk; edits path-copy only the touched root-to-leaf
/// spine, which keeps forked copies cheap under copy-on-write.
///
/// All positions are **character** positions, as in [`crate::text::TextOp`];
/// out-of-range positions panic (the op layer bounds-checks first and
/// returns [`crate::ApplyError`] instead).
#[derive(Debug, Clone, Default)]
pub struct Rope {
    tree: Tree<TextChunk>,
}

impl Rope {
    /// Empty rope.
    #[must_use]
    pub fn new() -> Self {
        Rope { tree: Tree::new() }
    }

    /// Number of chars, from the root's cached count. O(1).
    #[must_use]
    pub fn char_len(&self) -> usize {
        self.tree.weight()
    }

    /// Whether the rope holds no text.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Whether `self` and `other` share their root: one is a clone of the
    /// other and neither was edited since (two empty ropes count). O(1).
    #[must_use]
    pub(crate) fn ptr_eq(&self, other: &Rope) -> bool {
        self.tree.ptr_eq(&other.tree)
    }

    /// Insert `text` at char-position `pos` (`pos ≤ char_len`).
    pub fn insert(&mut self, pos: usize, text: &str) {
        assert!(
            pos <= self.char_len(),
            "rope insert at {pos} beyond length {}",
            self.char_len()
        );
        if text.is_empty() {
            return;
        }
        self.tree.insert(pos, TextChunk::from_str(text));
    }

    /// Remove `len` chars starting at char-position `pos`
    /// (`pos + len ≤ char_len`).
    pub fn delete(&mut self, pos: usize, len: usize) {
        assert!(
            pos + len <= self.char_len(),
            "rope delete {pos}..{} beyond length {}",
            pos + len,
            self.char_len()
        );
        self.tree.delete(pos, len);
    }

    /// The `len` chars starting at char-position `pos`, as an owned
    /// string (`pos + len ≤ char_len`).
    #[must_use]
    pub fn substring(&self, pos: usize, len: usize) -> String {
        assert!(
            pos + len <= self.char_len(),
            "rope substring {pos}..{} beyond length {}",
            pos + len,
            self.char_len()
        );
        let mut out = String::new();
        self.tree.for_each_in_range(pos, len, |c, start, end| {
            out.push_str(c.slice_chars(start, end));
        });
        out
    }

    /// In-order iterator over the rope's text chunks. Concatenated, the
    /// chunks are the document; use this to stream content (hashing,
    /// encoding) without materialising one big `String`.
    #[must_use]
    pub fn chunks(&self) -> Chunks<'_> {
        Chunks {
            leaves: self.tree.leaves(),
        }
    }

    /// Iterator over the chars of the document.
    pub fn chars(&self) -> impl Iterator<Item = char> + '_ {
        self.chunks().flat_map(str::chars)
    }

    /// Number of chunks (diagnostics; O(n)).
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.tree.leaf_count()
    }

    /// Bytes of text in `self` whose chunk allocation is **not** shared
    /// with `other` — how far a copy-on-write clone has diverged.
    #[must_use]
    pub fn unshared_bytes(&self, other: &Rope) -> usize {
        self.tree.fold_unshared(&other.tree, |c| c.text.len())
    }

    /// Total bytes of text across all chunks. O(n) over chunks.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.chunks().map(str::len).sum()
    }

    /// Build a rope with an explicit chunk layout (empty parts are
    /// dropped). Test support for layout-independence properties.
    #[doc(hidden)]
    #[must_use]
    pub fn from_chunk_strs(parts: &[&str]) -> Rope {
        Rope {
            tree: Tree::from_chunks(parts.iter().map(|p| TextChunk::from_str(p))),
        }
    }

    /// Validate structural invariants (one leaf depth, node occupancy,
    /// cached counts, chunk bounds). Test support; panics on violation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
        for (c, _) in std::iter::zip(self.tree.leaves(), 0..) {
            assert_eq!(c.chars, c.text.chars().count(), "stale chunk char count");
        }
    }
}

impl From<&str> for Rope {
    fn from(s: &str) -> Rope {
        let mut r = Rope::new();
        r.insert(0, s);
        r
    }
}

impl From<String> for Rope {
    fn from(s: String) -> Rope {
        Rope::from(s.as_str())
    }
}

impl From<&Rope> for String {
    fn from(r: &Rope) -> String {
        r.to_string()
    }
}

impl std::fmt::Display for Rope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for chunk in self.chunks() {
            f.write_str(chunk)?;
        }
        Ok(())
    }
}

impl PartialEq for Rope {
    fn eq(&self, other: &Rope) -> bool {
        // Chunk layouts may differ for equal content; compare streamed
        // bytes (UTF-8 equality is byte equality).
        if self.char_len() != other.char_len() {
            return false;
        }
        let mut a = self.chunks();
        let mut b = other.chunks();
        let (mut ca, mut cb): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if ca.is_empty() {
                match a.next() {
                    Some(s) => ca = s.as_bytes(),
                    None => return cb.is_empty() && b.next().is_none(),
                }
            }
            if cb.is_empty() {
                match b.next() {
                    Some(s) => cb = s.as_bytes(),
                    None => return false,
                }
            }
            let n = ca.len().min(cb.len());
            if ca[..n] != cb[..n] {
                return false;
            }
            ca = &ca[n..];
            cb = &cb[n..];
        }
    }
}

impl Eq for Rope {}

impl PartialEq<str> for Rope {
    fn eq(&self, other: &str) -> bool {
        let mut rest = other.as_bytes();
        for chunk in self.chunks() {
            let cb = chunk.as_bytes();
            if rest.len() < cb.len() || rest[..cb.len()] != *cb {
                return false;
            }
            rest = &rest[cb.len()..];
        }
        rest.is_empty()
    }
}

impl PartialEq<&str> for Rope {
    fn eq(&self, other: &&str) -> bool {
        self == *other
    }
}

impl PartialEq<String> for Rope {
    fn eq(&self, other: &String) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Rope> for str {
    fn eq(&self, other: &Rope) -> bool {
        other == self
    }
}

impl PartialEq<Rope> for String {
    fn eq(&self, other: &Rope) -> bool {
        other == self.as_str()
    }
}

/// In-order iterator over a rope's text chunks; see [`Rope::chunks`].
pub struct Chunks<'a> {
    leaves: Leaves<'a, TextChunk>,
}

impl<'a> Iterator for Chunks<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.leaves.next().map(|c| c.text.as_str())
    }
}
