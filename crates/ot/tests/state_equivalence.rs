//! Observational equivalence of the chunked state backends against their
//! scalar references: applying any valid op sequence to a [`Rope`] must
//! agree with [`TextOp::apply_str`] on a plain `String`, and a
//! [`ChunkTree`] must agree with [`ListOp::apply_vec`] on a plain `Vec` —
//! including the span forms `InsertRun` / `DeleteRange`. Fork/merge
//! determinism digests must likewise be independent of the backend's chunk
//! layout.

use proptest::prelude::*;
use sm_ot::list::ListOp;
use sm_ot::state::{ChunkTree, Rope};
use sm_ot::text::TextOp;
use sm_ot::{apply_all, Operation};

/// Clamp a raw (kind, pos, payload) triple into a `TextOp` valid at
/// document length `len`, mirroring how an editor would produce ops.
fn text_op(kind: u8, pos: usize, payload: &str, len: usize) -> Option<TextOp> {
    match kind % 3 {
        0 | 1 => {
            if payload.is_empty() {
                return None;
            }
            Some(TextOp::insert(pos % (len + 1), payload))
        }
        _ => {
            if len == 0 {
                return None;
            }
            let p = pos % len;
            let n = 1 + (payload.len() % 4).min(len - p - 1);
            Some(TextOp::delete(p, n))
        }
    }
}

/// Clamp a raw triple into a `ListOp<u8>` valid at list length `len`,
/// covering all five variants including the span forms.
fn list_op(kind: u8, pos: usize, val: u8, len: usize) -> Option<ListOp<u8>> {
    match kind % 5 {
        0 => Some(ListOp::Insert(pos % (len + 1), val)),
        1 => {
            let run: Vec<u8> = (0..1 + val % 5).map(|i| val.wrapping_add(i)).collect();
            Some(ListOp::InsertRun(pos % (len + 1), run))
        }
        2 if len > 0 => Some(ListOp::Delete(pos % len)),
        3 if len > 1 => {
            let p = pos % (len - 1);
            Some(ListOp::DeleteRange(p, 1 + val as usize % (len - p)))
        }
        4 if len > 0 => Some(ListOp::Set(pos % len, val)),
        _ => None,
    }
}

/// A position near one of three hot spots (a quarter, half and three
/// quarters into a document of length `len`), so inserts pile into a few
/// leaves and keep splitting them.
fn hot(spot: u8, jitter: u8, len: usize) -> usize {
    (len * (1 + spot as usize % 3) / 4 + jitter as usize % 8).min(len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Inserts piled into a few leaves split them in place: after every
    /// op the tree keeps its invariants and equals the `Vec` model, and a
    /// clone taken first never changes. Runs reach past one chunk (64) to
    /// cover the split + join path too.
    #[test]
    fn chunk_tree_leaves_split_in_place_under_piled_inserts(
        base_len in 0u16..300,
        script in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..96),
    ) {
        let base: Vec<u16> = (0..base_len).collect();
        let mut tree = ChunkTree::from_vec(base.clone());
        let shared = tree.clone();
        let mut reference = base.clone();
        for (i, (spot, jitter, kind)) in script.iter().enumerate() {
            let len = reference.len();
            let at = hot(*spot, *jitter, len);
            let value = 1000 + i as u16;
            let op = match kind % 8 {
                0..=4 => ListOp::Insert(at, value),
                5 | 6 => ListOp::InsertRun(at, vec![value; 1 + (*kind as usize / 8) % 72]),
                _ if len > 0 => ListOp::Delete(at.min(len - 1)),
                _ => continue,
            };
            op.apply(&mut tree).unwrap();
            op.apply_vec(&mut reference).unwrap();
            tree.check_invariants();
            prop_assert_eq!(&tree, &reference);
        }
        shared.check_invariants();
        prop_assert_eq!(&shared, &base);
    }

    /// The same for a `Rope`, whose leaves hold up to 1024 chars.
    #[test]
    fn rope_leaves_split_in_place_under_piled_inserts(
        base_len in 0usize..1600,
        script in prop::collection::vec((any::<u8>(), any::<u8>(), "[a-zé✨]{1,60}"), 0..64),
    ) {
        let base: String = "abcdé✨".chars().cycle().take(base_len).collect();
        let mut rope = Rope::from(base.as_str());
        let shared = rope.clone();
        let mut reference = base.clone();
        for (spot, jitter, payload) in &script {
            let len = rope.char_len();
            let at = hot(*spot, *jitter, len);
            let op = if jitter % 8 == 7 && at < len {
                TextOp::delete(at, 1)
            } else {
                TextOp::insert(at, payload)
            };
            op.apply(&mut rope).unwrap();
            op.apply_str(&mut reference).unwrap();
            rope.check_invariants();
            prop_assert_eq!(&rope, &reference);
        }
        shared.check_invariants();
        prop_assert_eq!(&shared, &base);
    }

    /// Leaves that flip between ASCII and not: an ASCII chunk (long enough
    /// that piled inserts split full leaves) next to a mixed one, edited
    /// mostly in ASCII, with a rare `é` / `✨` inserted and later deleted
    /// by a range around it. A leaf thus takes the byte-offset shortcut,
    /// then the char scan, then the shortcut again. After every op the
    /// rope equals the `String` model, keeps its invariants, and slices
    /// like it at a few char ranges.
    #[test]
    fn rope_chunks_flipping_between_ascii_and_not_track_string_reference(
        base_len in 0usize..2500,
        mixed_len in 1usize..40,
        script in prop::collection::vec((any::<u8>(), any::<u8>(), "[a-z]{1,40}"), 0..64),
    ) {
        let ascii: String = "abcdefgh".chars().cycle().take(base_len).collect();
        let mixed: String = "xyé✨".chars().cycle().take(mixed_len).collect();
        let mut rope = Rope::from_chunk_strs(&[&ascii, &mixed]);
        let mut reference = ascii + &mixed;
        for (spot, jitter, payload) in &script {
            let len = rope.char_len();
            let at = hot(*spot, *jitter, len);
            let op = match jitter % 16 {
                0 => TextOp::insert(at, if spot % 2 == 0 { "é" } else { "✨" }),
                // A range over the first multi-byte char from `at` on
                // (wrapping round), so the leaf holding it can turn ASCII.
                1 | 2 => {
                    let chars: Vec<char> = reference.chars().collect();
                    let Some(q) = (at..len).chain(0..at).find(|&i| !chars[i].is_ascii()) else {
                        continue;
                    };
                    let p = q.saturating_sub(*spot as usize % 3);
                    TextOp::delete(p, (q - p + 1 + payload.len() % 3).min(len - p))
                }
                3 if at < len => TextOp::delete(at, (payload.len() % 8).clamp(1, len - at)),
                _ => TextOp::insert(at, payload),
            };
            op.apply(&mut rope).unwrap();
            op.apply_str(&mut reference).unwrap();
            rope.check_invariants();
            prop_assert_eq!(&rope, &reference);
            let len = rope.char_len();
            for p in [at.min(len), len / 3, len.saturating_sub(*spot as usize)] {
                let k = (payload.len() + *jitter as usize).min(len - p);
                let want: String = reference.chars().skip(p).take(k).collect();
                prop_assert_eq!(rope.substring(p, k), want);
            }
        }
    }

    /// Rope and String observe every op sequence identically.
    #[test]
    fn rope_tracks_string_reference(
        base in "[a-z é✨]{0,40}",
        script in prop::collection::vec((any::<u8>(), any::<usize>(), "[A-Z0-9é✨]{0,6}"), 0..24),
    ) {
        let mut rope = Rope::from(base.as_str());
        let mut reference = base.clone();
        for (kind, pos, payload) in &script {
            let len = reference.chars().count();
            prop_assert_eq!(rope.char_len(), len);
            let Some(op) = text_op(*kind, *pos, payload, len) else { continue };
            op.apply(&mut rope).unwrap();
            op.apply_str(&mut reference).unwrap();
        }
        prop_assert_eq!(&rope, &reference);
        rope.check_invariants();
    }

    /// ChunkTree and Vec observe every op sequence identically, spans
    /// included.
    #[test]
    fn chunk_tree_tracks_vec_reference(
        base in prop::collection::vec(any::<u8>(), 0..60),
        script in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..32),
    ) {
        let mut tree = ChunkTree::from_vec(base.clone());
        let mut reference = base.clone();
        for (kind, pos, val) in &script {
            prop_assert_eq!(tree.len(), reference.len());
            let Some(op) = list_op(*kind, *pos, *val, reference.len()) else { continue };
            op.apply(&mut tree).unwrap();
            op.apply_vec(&mut reference).unwrap();
        }
        prop_assert_eq!(&tree, &reference);
        tree.check_invariants();
    }

    /// Out-of-range ops error identically on both backends and leave the
    /// chunked state untouched.
    #[test]
    fn errors_agree_between_backends(
        base in "[a-z]{0,10}",
        pos in any::<usize>(),
        len in 1usize..5,
    ) {
        let n = base.chars().count();
        let mut rope = Rope::from(base.as_str());
        let mut reference = base.clone();
        let op = TextOp::delete(pos, len);
        let a = op.apply(&mut rope);
        let b = op.apply_str(&mut reference);
        prop_assert_eq!(a.is_err(), b.is_err());
        if a.is_err() {
            // A failed apply must not mutate.
            prop_assert_eq!(rope.char_len(), n);
        }
        prop_assert_eq!(&rope, &reference);
    }

    /// Chunk layout never leaks: any partition of the same content is
    /// observationally equal and yields identical results under ops.
    #[test]
    fn layout_independence(
        content in prop::collection::vec(any::<u8>(), 1..50),
        cut in any::<usize>(),
        script in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..10),
    ) {
        let at = cut % content.len();
        let mut a = ChunkTree::from_chunk_vecs(vec![content[..at].to_vec(), content[at..].to_vec()]);
        let mut b = ChunkTree::from_vec(content.clone());
        prop_assert_eq!(&a, &b);
        for (kind, pos, val) in &script {
            let Some(op) = list_op(*kind, *pos, *val, b.len()) else { continue };
            op.apply(&mut a).unwrap();
            op.apply(&mut b).unwrap();
        }
        prop_assert_eq!(&a, &b);
    }
}

/// Rebase-then-apply agrees between backends: the digest of a merged text
/// is the same whether the states are ropes or strings. This is the
/// backend-independence half of the determinism audit.
#[test]
fn rebase_digest_is_backend_independent() {
    let base = "the quick brown fox jumps over the lazy dog";
    let committed = vec![
        TextOp::insert(4, "very "),
        TextOp::delete(0, 4),
        TextOp::insert(0, "A "),
    ];
    let incoming = vec![TextOp::insert(9, "RED "), TextOp::delete(20, 5)];
    let rebased = sm_ot::seq::rebase(&incoming, &committed);

    let mut rope = Rope::from(base);
    apply_all(&mut rope, &committed).unwrap();
    apply_all(&mut rope, &rebased).unwrap();

    let mut reference = base.to_string();
    for op in committed.iter().chain(&rebased) {
        op.apply_str(&mut reference).unwrap();
    }
    assert_eq!(rope, reference);
}

/// The same for lists, with span ops in both logs.
#[test]
fn list_rebase_digest_is_backend_independent() {
    let base: Vec<u8> = (0..32).collect();
    let committed = vec![
        ListOp::InsertRun(4, vec![100, 101, 102]),
        ListOp::DeleteRange(10, 5),
        ListOp::Set(0, 99),
    ];
    let incoming = vec![
        ListOp::Insert(8, 200),
        ListOp::DeleteRange(2, 3),
        ListOp::InsertRun(30, vec![1, 2]),
    ];
    let rebased = sm_ot::seq::rebase(&incoming, &committed);

    let mut tree = ChunkTree::from_vec(base.clone());
    apply_all(&mut tree, &committed).unwrap();
    apply_all(&mut tree, &rebased).unwrap();

    let mut reference = base;
    for op in committed.iter().chain(&rebased) {
        op.apply_vec(&mut reference).unwrap();
    }
    assert_eq!(tree, reference);
    tree.check_invariants();
}
