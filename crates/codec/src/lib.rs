//! Binary wire codec for Spawn & Merge data.
//!
//! Distributed Spawn & Merge (`spawn_merge::dist`, the paper's "apply the
//! concept of Spawn and Merge to distributed computing by using MPI"
//! future work) ships **states** and **operation logs** between nodes as
//! bytes, and the store and session server journal and send the same.
//! The approved offline dependency set contains `serde` but *no byte
//! format* (no bincode/serde_json), so this crate implements a compact
//! self-describing-enough binary format from scratch:
//!
//! * unsigned integers: LEB128 varints;
//! * signed integers: zigzag + varint;
//! * strings / byte blobs: length-prefixed;
//! * sequences / options: length- or tag-prefixed;
//! * enums (operations): a one-byte discriminant plus fields.
//!
//! Every [`Encode`] implementation has a matching [`Decode`]; the property
//! tests round-trip random values of every supported type, and decoding
//! arbitrary garbage must fail cleanly, never panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ops;
pub mod session;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Decoding failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended mid-value.
    UnexpectedEnd,
    /// A varint exceeded the width of its target type.
    VarintOverflow,
    /// An enum discriminant byte had no corresponding variant.
    BadTag(u8),
    /// A length prefix is implausibly large for the remaining input.
    BadLength(u64),
    /// String bytes were not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::VarintOverflow => write!(f, "varint overflows target type"),
            DecodeError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            DecodeError::BadLength(l) => write!(f, "implausible length prefix {l}"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serialize into a byte buffer.
pub trait Encode {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// Deserialize from a byte buffer.
pub trait Decode: Sized {
    /// Consume and decode one value from the front of `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError>;

    /// Decode a value that must consume the whole input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut b = Bytes::copy_from_slice(bytes);
        let v = Self::decode(&mut b)?;
        if !b.is_empty() {
            return Err(DecodeError::BadLength(b.len() as u64));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// varints
// ---------------------------------------------------------------------

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Read a LEB128 varint.
///
/// Scans the unread region as one slice — a single bounds check up front
/// instead of a `has_remaining` + indexed `get_u8` per byte, which is the
/// hot loop of every decode — and consumes exactly the bytes the per-byte
/// loop would have (including the offending byte on overflow).
pub fn get_varint(buf: &mut Bytes) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let mut used = 0usize;
    let mut res: Result<u64, DecodeError> = Err(DecodeError::UnexpectedEnd);
    for &byte in buf.as_slice() {
        used += 1;
        let payload = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && payload > 1) {
            res = Err(DecodeError::VarintOverflow);
            break;
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            res = Ok(v);
            break;
        }
        shift += 7;
    }
    buf.advance(used);
    res
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------
// primitive impls
// ---------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),+) => {$(
        impl Encode for $t {
            fn encode(&self, buf: &mut BytesMut) {
                put_varint(buf, u64::from(*self));
            }
        }
        impl Decode for $t {
            fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
                let v = get_varint(buf)?;
                <$t>::try_from(v).map_err(|_| DecodeError::VarintOverflow)
            }
        }
    )+};
}
impl_unsigned!(u8, u16, u32, u64);

impl Encode for usize {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, *self as u64);
    }
}
impl Decode for usize {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        usize::try_from(get_varint(buf)?).map_err(|_| DecodeError::VarintOverflow)
    }
}

macro_rules! impl_signed {
    ($($t:ty),+) => {$(
        impl Encode for $t {
            fn encode(&self, buf: &mut BytesMut) {
                put_varint(buf, zigzag(i64::from(*self)));
            }
        }
        impl Decode for $t {
            fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
                let v = unzigzag(get_varint(buf)?);
                <$t>::try_from(v).map_err(|_| DecodeError::VarintOverflow)
            }
        }
    )+};
}
impl_signed!(i8, i16, i32, i64);

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}
impl Decode for bool {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        if !buf.has_remaining() {
            return Err(DecodeError::UnexpectedEnd);
        }
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Encode for char {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, u64::from(u32::from(*self)));
    }
}
impl Decode for char {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        let v = u32::decode(buf)?;
        char::from_u32(v).ok_or(DecodeError::VarintOverflow)
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
}
impl Decode for String {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        let len = get_varint(buf)?;
        if len > buf.remaining() as u64 {
            return Err(DecodeError::BadLength(len));
        }
        let raw = buf.split_to(len as usize);
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        let len = get_varint(buf)?;
        // Every element takes at least one byte; reject absurd prefixes.
        if len > buf.remaining() as u64 {
            return Err(DecodeError::BadLength(len));
        }
        let mut v = Vec::with_capacity(len as usize);
        for _ in 0..len {
            v.push(T::decode(buf)?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        if !buf.has_remaining() {
            return Err(DecodeError::UnexpectedEnd);
        }
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(self);
    }
}
impl<const N: usize> Decode for [u8; N] {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        if buf.remaining() < N {
            return Err(DecodeError::UnexpectedEnd);
        }
        let mut out = [0u8; N];
        buf.copy_to_slice(&mut out);
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($( $name:ident : $idx:tt ),+) => {
        impl<$( $name: Encode ),+> Encode for ( $( $name, )+ ) {
            fn encode(&self, buf: &mut BytesMut) {
                $( self.$idx.encode(buf); )+
            }
        }
        impl<$( $name: Decode ),+> Decode for ( $( $name, )+ ) {
            fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
                Ok(( $( $name::decode(buf)?, )+ ))
            }
        }
    };
}
impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut b = BytesMut::new();
            put_varint(&mut b, v);
            let mut bytes = b.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 bytes of continuation = > 64 bits.
        let mut bytes = Bytes::copy_from_slice(&[0xff; 11]);
        assert_eq!(get_varint(&mut bytes), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut bytes = Bytes::copy_from_slice(&[0x80]);
        assert_eq!(get_varint(&mut bytes), Err(DecodeError::UnexpectedEnd));
        assert!(String::from_bytes(&[5, b'a']).is_err());
        assert!(<Vec<u32>>::from_bytes(&[3, 1]).is_err());
        assert!(<[u8; 4]>::from_bytes(&[1, 2]).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn trailing_bytes_rejected_by_from_bytes() {
        let mut b = BytesMut::new();
        7u32.encode(&mut b);
        b.put_u8(99);
        assert!(matches!(
            u32::from_bytes(&b.freeze()),
            Err(DecodeError::BadLength(_))
        ));
    }

    #[test]
    fn basic_types_roundtrip() {
        roundtrip(&42u8);
        roundtrip(&65535u16);
        roundtrip(&123456789u32);
        roundtrip(&u64::MAX);
        roundtrip(&-42i32);
        roundtrip(&i64::MIN);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&'🦀');
        roundtrip(&"héllo wörld".to_string());
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<u32>::new());
        roundtrip(&Some("x".to_string()));
        roundtrip(&Option::<u8>::None);
        roundtrip(&[1u8, 2, 3, 4]);
        roundtrip(&(1u32, "two".to_string(), -3i64));
    }

    #[test]
    fn bad_bool_and_option_tags() {
        assert_eq!(bool::from_bytes(&[7]), Err(DecodeError::BadTag(7)));
        assert!(matches!(
            Option::<u8>::from_bytes(&[9, 0]),
            Err(DecodeError::BadTag(9))
        ));
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v in any::<u64>()) {
            roundtrip(&v);
        }

        #[test]
        fn prop_i64_roundtrip(v in any::<i64>()) {
            roundtrip(&v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".{0,64}") {
            roundtrip(&s.to_string());
        }

        #[test]
        fn prop_vec_roundtrip(v in prop::collection::vec(any::<u32>(), 0..64)) {
            roundtrip(&v);
        }

        #[test]
        fn prop_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            // Decoding arbitrary bytes may fail but must never panic.
            let _ = <Vec<String>>::from_bytes(&bytes);
            let _ = <(u64, String, i64)>::from_bytes(&bytes);
            let _ = <Option<Vec<u16>>>::from_bytes(&bytes);
        }
    }
}
