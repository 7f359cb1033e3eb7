//! [`MText`] — a mergeable string ("mergeable strings" are explicitly named
//! by the paper in §II-C), carrying the collaborative-editing OT semantics
//! of the text algebra: concurrent inserts both survive, range deletes
//! split around concurrent insertions.

use sm_ot::state::{Chunks, Rope};
use sm_ot::text::TextOp;

use crate::versioned::Versioned;
use crate::Leaf;

/// A mergeable text document. Positions are **character** positions.
#[derive(Debug, Clone)]
pub struct MText {
    inner: Versioned<TextOp>,
}

impl MText {
    /// An empty document.
    pub fn new() -> Self {
        MText {
            inner: Versioned::new(Rope::new()),
        }
    }

    /// Borrow the backing [`Rope`].
    pub fn rope(&self) -> &Rope {
        self.inner.state()
    }

    /// In-order iterator over the document's text chunks. Concatenated,
    /// the chunks are the document; use this (or `to_string()`) to stream
    /// contents without materialising one big `String`.
    pub fn chunks(&self) -> Chunks<'_> {
        self.inner.state().chunks()
    }

    /// Document length in characters — O(1) from the rope root's cached
    /// count.
    pub fn char_len(&self) -> usize {
        self.inner.state().char_len()
    }

    /// True if the document is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.state().is_empty()
    }

    /// Insert `text` at character position `pos`.
    ///
    /// # Panics
    /// Panics if `pos > char_len`.
    pub fn insert_str(&mut self, pos: usize, text: impl Into<String>) {
        let text = text.into();
        if text.is_empty() {
            return;
        }
        assert!(pos <= self.char_len(), "insert position {pos} out of range");
        self.inner.record_validated(TextOp::insert(pos, text));
    }

    /// Append `text` at the end.
    pub fn push_str(&mut self, text: impl Into<String>) {
        let at = self.char_len();
        self.insert_str(at, text);
    }

    /// Delete `len` characters starting at character position `pos`.
    ///
    /// # Panics
    /// Panics if the range exceeds the document.
    pub fn delete_range(&mut self, pos: usize, len: usize) {
        if len == 0 {
            return;
        }
        assert!(
            pos + len <= self.char_len(),
            "delete range {pos}+{len} out of range"
        );
        self.inner.record_validated(TextOp::delete(pos, len));
    }
}

impl Default for MText {
    fn default() -> Self {
        Self::new()
    }
}

impl From<&str> for MText {
    fn from(s: &str) -> Self {
        MText {
            inner: Versioned::new(Rope::from(s)),
        }
    }
}

impl From<String> for MText {
    fn from(s: String) -> Self {
        MText {
            inner: Versioned::new(Rope::from(s)),
        }
    }
}

impl std::fmt::Display for MText {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self.inner.state(), f)
    }
}

impl PartialEq for MText {
    fn eq(&self, other: &Self) -> bool {
        self.inner.state() == other.inner.state()
    }
}

impl PartialEq<str> for MText {
    fn eq(&self, other: &str) -> bool {
        self.inner.state() == other
    }
}

impl PartialEq<&str> for MText {
    fn eq(&self, other: &&str) -> bool {
        self.inner.state() == *other
    }
}

impl Leaf for MText {
    type Op = TextOp;

    fn versioned(&self) -> &Versioned<TextOp> {
        &self.inner
    }

    fn versioned_mut(&mut self) -> &mut Versioned<TextOp> {
        &mut self.inner
    }

    fn wrap(inner: Versioned<TextOp>) -> Self {
        MText { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mergeable;

    #[test]
    fn editing_basics() {
        let mut t = MText::from("hello");
        t.push_str(" world");
        t.insert_str(5, ",");
        assert_eq!(t, "hello, world");
        t.delete_range(0, 7);
        assert_eq!(t, "world");
        assert_eq!(t.char_len(), 5);
    }

    #[test]
    fn empty_insert_and_delete_record_nothing() {
        let mut t = MText::from("x");
        t.insert_str(0, "");
        t.delete_range(0, 0);
        assert_eq!(t.pending_ops(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        MText::new().insert_str(1, "x");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delete_out_of_range_panics() {
        MText::from("ab").delete_range(1, 5);
    }

    #[test]
    fn concurrent_edits_merge() {
        let mut doc = MText::from("The fox jumps");
        let mut alice = doc.fork();
        let mut bob = doc.fork();
        alice.insert_str(4, "quick ");
        bob.push_str(" high");
        doc.merge(&alice).unwrap();
        doc.merge(&bob).unwrap();
        assert_eq!(doc, "The quick fox jumps high");
    }

    #[test]
    fn delete_splits_around_concurrent_insert() {
        let mut doc = MText::from("abcdef");
        let mut deleter = doc.fork();
        let mut inserter = doc.fork();
        deleter.delete_range(1, 4); // delete "bcde"
        inserter.insert_str(3, "XY"); // insert inside the doomed range
        doc.merge(&inserter).unwrap();
        doc.merge(&deleter).unwrap();
        assert_eq!(
            doc, "aXYf",
            "concurrent insert must survive the range delete"
        );
    }

    #[test]
    fn unicode_merge() {
        let mut doc = MText::from("héllo wörld");
        let mut a = doc.fork();
        let mut b = doc.fork();
        a.insert_str(5, "✨");
        b.delete_range(6, 5); // delete "wörld", leaving the space
        doc.merge(&a).unwrap();
        doc.merge(&b).unwrap();
        assert_eq!(doc, "héllo✨ ");
    }

    #[test]
    fn merge_order_is_the_serialization_order() {
        let mut d1 = MText::new();
        let mut a = d1.fork();
        let mut b = d1.fork();
        a.push_str("A");
        b.push_str("B");
        d1.merge(&a).unwrap();
        d1.merge(&b).unwrap();
        assert_eq!(d1, "AB");

        let mut d2 = MText::new();
        let mut a = d2.fork();
        let mut b = d2.fork();
        a.push_str("A");
        b.push_str("B");
        d2.merge(&b).unwrap();
        d2.merge(&a).unwrap();
        assert_eq!(d2, "BA");
    }
}
