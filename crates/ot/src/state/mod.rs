//! Chunked state backends for sequence CRDT-style states.
//!
//! The naive states (`String` for [`crate::text::TextOp`], `Vec<T>` for
//! [`crate::list::ListOp`]) pay O(n) per apply: every text op rescans the
//! whole string to resolve char positions, and every list insert/remove
//! shifts the tail. Rebasing k ops over an n-unit document is therefore
//! O(k·n), which caps mergeable documents at toy sizes.
//!
//! This module provides two balanced chunked structures that make every
//! apply an O(log n) seek plus an O(chunk) splice:
//!
//! - [`Rope`] — chunked UTF-8 text with the char count cached at every
//!   node (O(1) [`Rope::char_len`]);
//! - [`ChunkTree`] — a chunked element sequence with per-subtree element
//!   counts (O(1) [`ChunkTree::len`]).
//!
//! Both share one engine (`tree`): a persistent B+-tree whose leaves are
//! bounded chunks behind `Arc` and whose inner nodes hold up to 16
//! children each. Cloning a state is O(1) and shares every chunk, so
//! `Versioned::fork`'s copy-on-write is **sub-structure granular** — a
//! child that edits one chunk of a 1M-char document deep-copies ~one
//! chunk plus the O(log n) spine above it, and `Arc::make_mut` unshares
//! only the touched path.
//!
//! ## Invariants
//!
//! 1. **Chunk bounds** — every leaf holds between 1 and `MAX_WEIGHT`
//!    units (1024 chars for text, 64 elements for lists). Oversized
//!    content is sliced at half the maximum so fresh chunks keep splice
//!    headroom; deletes coalesce the seam chunks when they fit.
//! 2. **Cached counts** — every inner node caches each child's weight,
//!    its total and its height; edits fix the counts along the path they
//!    copy.
//! 3. **Balance** — every leaf sits at one depth, and every inner node
//!    below the root holds 8 to 16 children (the root 2 to 16): a full
//!    node splits, an underfull one merges with or borrows from a
//!    sibling, so seek depth is O(log n) regardless of edit history.
//! 4. **Arc sharing** — nodes are immutable once shared; all mutation
//!    goes through `Arc::make_mut` path copies, never in-place writes to
//!    shared nodes.

mod chunk_tree;
mod rope;
mod tree;

pub use chunk_tree::{ChunkIter, ChunkTree, Item, Iter};
pub use rope::{Chunks, Rope};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rope_roundtrip_and_len() {
        let mut r = Rope::from("hello world");
        assert_eq!(r.char_len(), 11);
        assert_eq!(r, "hello world");
        r.insert(5, ",");
        r.insert(12, "!");
        assert_eq!(r.to_string(), "hello, world!");
        r.delete(5, 1);
        assert_eq!(r, "hello world!");
        r.check_invariants();
    }

    #[test]
    fn rope_unicode_positions_are_chars() {
        let mut r = Rope::from("héllo ✨");
        assert_eq!(r.char_len(), 7);
        r.delete(1, 5);
        assert_eq!(r, "h✨");
        r.insert(1, "é");
        assert_eq!(r, "hé✨");
        assert_eq!(r.substring(1, 2), "é✨");
        r.check_invariants();
    }

    #[test]
    fn rope_large_doc_stays_balanced() {
        let mut r = Rope::new();
        let word = "abcdefghij";
        for i in 0..2000 {
            // Scatter inserts to exercise split/join paths.
            let pos = (i * 7919) % (r.char_len() + 1);
            r.insert(pos, word);
        }
        assert_eq!(r.char_len(), 20_000);
        r.check_invariants();
        // log2(20k / 1024-chunk) is tiny; even with slack the tree must
        // be far shallower than the chunk count.
        assert!(r.chunk_count() >= 20);
        let mut expect = String::new();
        let mut probe = Rope::new();
        for i in 0..200 {
            let pos = (i * 31) % (probe.char_len() + 1);
            probe.insert(pos, "xy");
            let b = expect
                .char_indices()
                .nth(pos)
                .map_or(expect.len(), |(b, _)| b);
            expect.insert_str(b, "xy");
        }
        assert_eq!(probe, expect);
    }

    #[test]
    fn rope_equality_is_layout_independent() {
        let a = Rope::from_chunk_strs(&["he", "llo ", "wor", "ld"]);
        let b = Rope::from_chunk_strs(&["hello", " world"]);
        let c = Rope::from("hello world");
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a, "hello world");
        a.check_invariants();
        b.check_invariants();
        assert_ne!(a, Rope::from("hello_world"));
        assert_ne!(a, Rope::from("hello worl"));
    }

    #[test]
    fn rope_clone_shares_until_edited() {
        let parent = Rope::from("x".repeat(100_000).as_str());
        let mut child = parent.clone();
        assert_eq!(child.unshared_bytes(&parent), 0);
        child.insert(50_000, "EDIT");
        let unshared = child.unshared_bytes(&parent);
        assert!(unshared > 0, "edit must unshare something");
        assert!(
            unshared < parent.byte_len() / 10,
            "one edit unshared {unshared} of {} bytes",
            parent.byte_len()
        );
        // Parent is untouched.
        assert_eq!(parent.char_len(), 100_000);
    }

    #[test]
    fn chunk_tree_matches_vec_reference() {
        let mut t: ChunkTree<u32> = ChunkTree::new();
        let mut v: Vec<u32> = Vec::new();
        for i in 0u32..500 {
            let pos = (i as usize * 13) % (v.len() + 1);
            t.insert(pos, i);
            v.insert(pos, i);
        }
        assert_eq!(t, v);
        assert_eq!(t.len(), 500);
        for i in 0..200 {
            let pos = (i * 7) % v.len();
            assert_eq!(t.remove(pos), v.remove(pos));
        }
        assert_eq!(t, v);
        t.set(3, 999);
        v[3] = 999;
        t.insert_slice(10, &[1, 2, 3]);
        v.splice(10..10, [1, 2, 3]);
        t.remove_range(5, 20);
        v.drain(5..25);
        assert_eq!(t, v);
        assert_eq!(t.to_vec(), v);
        assert_eq!(t.range_to_vec(2, 5), v[2..7].to_vec());
        t.check_invariants();
    }

    #[test]
    fn chunk_tree_iteration_and_layout_independence() {
        let a: ChunkTree<u8> = ChunkTree::from_chunk_vecs(vec![vec![1, 2], vec![3], vec![4, 5]]);
        let b: ChunkTree<u8> = ChunkTree::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(a, b);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert_eq!(a.iter().len(), 5);
        assert_eq!(a.first(), Some(&1));
        assert_eq!(a.get(4), Some(&5));
        assert_eq!(a.get(5), None);
        a.check_invariants();
    }

    #[test]
    fn chunk_tree_clone_shares_until_edited() {
        let parent: ChunkTree<u64> = (0..100_000).collect();
        let mut child = parent.clone();
        assert_eq!(child.unshared_elems(&parent), 0);
        child.set(42_000, 7);
        let unshared = child.unshared_elems(&parent);
        assert!(unshared > 0);
        assert!(
            unshared < parent.len() / 10,
            "one edit unshared {unshared} of {} elems",
            parent.len()
        );
        assert_eq!(parent.get(42_000), Some(&42_000));
        assert_eq!(child.get(42_000), Some(&7));
    }

    #[test]
    fn delete_coalesces_seam_chunks() {
        let mut t: ChunkTree<u16> = (0..10_000).collect();
        // Repeated deletes at the same spot would fragment without seam
        // merging; with it the chunk count must shrink with the content.
        while t.len() > 100 {
            t.remove_range(t.len() / 3, 50.min(t.len() - 100));
        }
        t.check_invariants();
        assert!(
            t.chunk_count() <= 8,
            "fragmented: {} chunks",
            t.chunk_count()
        );
    }

    #[test]
    fn empty_edits_are_noops() {
        let mut r = Rope::new();
        r.insert(0, "");
        assert!(r.is_empty());
        let mut t: ChunkTree<u8> = ChunkTree::new();
        t.insert_slice(0, &[]);
        t.remove_range(0, 0);
        assert!(t.is_empty());
        assert_eq!(t, Vec::<u8>::new());
        assert_eq!(r, "");
    }
}
