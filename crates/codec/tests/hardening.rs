//! Adversarial-input hardening for the wire codec.
//!
//! The WAL and the distributed wire both feed `sm-codec` bytes that an
//! attacker (or a dying disk) controls, so beyond the round-trip laws the
//! codec must satisfy three robustness properties on *arbitrary* input:
//!
//! 1. **No panic, ever** — any byte string decodes to `Ok` or `Err`.
//! 2. **No absurd allocation** — a length prefix larger than the
//!    remaining input is rejected *before* reserving memory for it.
//! 3. **Prefix safety** — truncating a valid encoding anywhere yields a
//!    clean decode error (or a valid shorter value), never a crash.

use bytes::{BufMut, BytesMut};
use sm_codec::{put_varint, Decode, DecodeError, Encode};
use sm_ot::list::ListOp;
use sm_ot::text::TextOp;

use proptest::prelude::*;

/// A deterministic mixed op log covering every `ListOp` tag, including
/// the span tags 3 (`InsertRun`) and 4 (`DeleteRange`).
fn sample_log(seed: u64, len: usize) -> Vec<ListOp<u32>> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..len)
        .map(|_| match next() % 5 {
            0 => ListOp::Insert(next() as usize % 100, next() as u32),
            1 => ListOp::Delete(next() as usize % 100),
            2 => ListOp::Set(next() as usize % 100, next() as u32),
            3 => ListOp::InsertRun(
                next() as usize % 100,
                (0..(next() % 9)).map(|_| next() as u32).collect(),
            ),
            _ => ListOp::DeleteRange(next() as usize % 100, next() as usize % 50),
        })
        .collect()
}

#[test]
fn huge_length_prefixes_error_before_allocating() {
    // A 4 GiB element count with a 3-byte body. `Vec::with_capacity` on
    // the stated length would abort the process; the codec must reject
    // the prefix against the remaining input instead.
    for huge in [u64::from(u32::MAX), u64::MAX >> 1] {
        let mut b = BytesMut::new();
        put_varint(&mut b, huge);
        b.put_slice(&[1, 2, 3]);
        let bytes = b.freeze().to_vec();
        assert!(matches!(
            <Vec<u64>>::from_bytes(&bytes),
            Err(DecodeError::BadLength(l)) if l == huge
        ));
        assert!(matches!(
            String::from_bytes(&bytes),
            Err(DecodeError::BadLength(l)) if l == huge
        ));
    }
}

#[test]
fn span_tags_with_adversarial_bodies_fail_cleanly() {
    // Tag 3 (InsertRun) with a run length claiming more elements than
    // there are bytes.
    let mut b = BytesMut::new();
    b.put_u8(3);
    put_varint(&mut b, 0); // position
    put_varint(&mut b, 1 << 40); // run length
    let bytes = b.freeze().to_vec();
    assert!(matches!(
        ListOp::<u32>::from_bytes(&bytes),
        Err(DecodeError::BadLength(_))
    ));

    // Tag 4 (DeleteRange) whose length varint overflows usize semantics.
    let mut b = BytesMut::new();
    b.put_u8(4);
    put_varint(&mut b, 7);
    b.put_slice(&[0xff; 11]); // varint continuation forever
    let bytes = b.freeze().to_vec();
    assert!(matches!(
        ListOp::<u32>::from_bytes(&bytes),
        Err(DecodeError::VarintOverflow)
    ));

    // Truncated mid-run: tag 3 promising 4 elements, delivering 2.
    let full = ListOp::InsertRun(5usize, vec![1u32, 2, 3, 4]).to_bytes();
    let cut = &full.as_slice()[..full.len() - 2];
    assert!(ListOp::<u32>::from_bytes(cut).is_err());
}

#[test]
fn truncation_sweep_over_a_real_log_never_panics() {
    let log = sample_log(42, 24);
    let bytes = log.to_bytes();
    let bytes = bytes.as_slice();
    assert_eq!(<Vec<ListOp<u32>>>::from_bytes(bytes).unwrap(), log);
    for cut in 0..bytes.len() {
        // Every strict prefix must fail cleanly: the leading element
        // count no longer matches the delivered elements.
        assert!(
            <Vec<ListOp<u32>>>::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded",
            bytes.len()
        );
    }
}

proptest! {
    /// Single byte flips anywhere in a valid encoding either decode to
    /// *some* value or error — never panic, never over-allocate.
    #[test]
    fn prop_byte_flips_never_panic(seed in any::<u64>(), at in any::<usize>(), bit in 0u8..8) {
        let log = sample_log(seed, 12);
        let mut bytes = log.to_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        let _ = <Vec<ListOp<u32>>>::from_bytes(&bytes);
        let _ = <Vec<TextOp>>::from_bytes(&bytes);
    }

    /// Pure garbage against every operation algebra the WAL can carry.
    #[test]
    fn prop_garbage_ops_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = <Vec<ListOp<u64>>>::from_bytes(&bytes);
        let _ = <Vec<ListOp<String>>>::from_bytes(&bytes);
        let _ = <Vec<TextOp>>::from_bytes(&bytes);
        let _ = <Vec<sm_ot::tree::TreeOp<u32>>>::from_bytes(&bytes);
        let _ = <Vec<sm_ot::map::MapOp<String, i64>>>::from_bytes(&bytes);
    }

    /// Round-trip with a trailing-garbage suffix: `from_bytes` must
    /// reject the suffix rather than silently ignore it.
    #[test]
    fn prop_trailing_garbage_rejected(seed in any::<u64>(), tail in prop::collection::vec(any::<u8>(), 1..8)) {
        let log = sample_log(seed, 6);
        let mut bytes = log.to_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(<Vec<ListOp<u32>>>::from_bytes(&bytes).is_err());
    }
}

/// Tag 3 of a client message was the ack the session protocol no longer
/// has: its old bytes, however plausible the body, are an unknown tag.
#[test]
fn the_retired_client_tag_3_is_refused() {
    use sm_codec::session::ClientMsg;

    for upto in [0, 1, u64::MAX] {
        let mut b = BytesMut::new();
        b.put_u8(3);
        put_varint(&mut b, upto);
        assert_eq!(ClientMsg::from_bytes(&b), Err(DecodeError::BadTag(3)));
    }
}
