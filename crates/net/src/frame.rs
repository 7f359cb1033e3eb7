//! CRC32-checked framing shared by the durable store and the wire layer.
//!
//! A frame is the unit of torn-write detection: every record appended to
//! the sm-store WAL (and every message a framed transport carries) is
//! wrapped as
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────┐
//! │ len  u32LE │ crc  u32LE │ payload (len B)  │
//! └────────────┴────────────┴──────────────────┘
//! ```
//!
//! where `crc` is the CRC32 (IEEE 802.3, reflected) of the payload alone.
//! Decoding distinguishes **truncation** (fewer bytes than the header
//! promises — what a crash mid-append leaves behind) from **corruption**
//! (enough bytes, wrong checksum), because recovery treats the two
//! differently: a torn tail is repairable, a corrupt interior is not.

use std::fmt;

/// Bytes of framing overhead preceding every payload.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single frame's payload; anything larger is rejected
/// on both encode and decode so a corrupted length prefix can never
/// trigger a pathological allocation.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does: either the 8-byte header
    /// itself is incomplete or the payload is shorter than `len` promised.
    /// This is the signature a torn (crash-interrupted) append leaves.
    Truncated {
        /// Bytes the complete frame would occupy.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The payload is fully present but its checksum does not match.
    BadCrc {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`] — treated as corruption,
    /// not as an instruction to allocate.
    TooLarge(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "frame truncated: need {need} bytes, have {have}")
            }
            FrameError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            FrameError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_PAYLOAD} byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) of `bytes`.
///
/// Slicing-by-8: eight table lookups fold eight input bytes per step, so
/// the carried dependency is one XOR-combine per eight bytes instead of
/// one lookup per byte. Same polynomial, same check values — only the
/// evaluation order changes.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][c[4] as usize]
            ^ CRC_TABLES[2][c[5] as usize]
            ^ CRC_TABLES[1][c[6] as usize]
            ^ CRC_TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][i] = CRC of byte `i` followed by `k` zero bytes, so one
    // lookup per input byte at lane `7 - position` folds a whole word.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Append one frame wrapping `payload` to `out`.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — frames that large are a
/// caller bug, not a runtime condition.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "frame payload of {} bytes exceeds the {MAX_PAYLOAD} byte cap",
        payload.len()
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decode the frame starting at `buf[0]`. On success returns the payload
/// slice and the total number of bytes the frame occupied (header
/// included), so callers can iterate a concatenated stream of frames.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            need: HEADER_LEN,
            have: buf.len(),
        });
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    let stored = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(FrameError::Truncated {
            need: total,
            have: buf.len(),
        });
    }
    let payload = &buf[HEADER_LEN..total];
    let computed = crc32(payload);
    if computed != stored {
        return Err(FrameError::BadCrc { stored, computed });
    }
    Ok((payload, total))
}

/// Iterator over the frames of a concatenated byte stream, yielding
/// `(offset, payload)` pairs until the stream ends cleanly or a frame
/// fails to decode. After exhaustion, [`Frames::trailer`] reports what
/// terminated the walk.
pub struct Frames<'a> {
    buf: &'a [u8],
    offset: usize,
    trailer: Option<FrameError>,
}

impl<'a> Frames<'a> {
    /// Walk the frames of `buf` from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Frames {
            buf,
            offset: 0,
            trailer: None,
        }
    }

    /// Byte offset of the next undecoded position — after exhaustion,
    /// where the clean prefix ends.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// `None` while frames remain or if the stream ended exactly on a
    /// frame boundary; otherwise the error that stopped the walk.
    pub fn trailer(&self) -> Option<FrameError> {
        self.trailer
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.trailer.is_some() || self.offset >= self.buf.len() {
            return None;
        }
        match decode_frame(&self.buf[self.offset..]) {
            Ok((payload, consumed)) => {
                let at = self.offset;
                self.offset += consumed;
                Some((at, payload))
            }
            Err(e) => {
                self.trailer = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        encode_frame(b"hello", &mut buf);
        assert_eq!(buf.len(), HEADER_LEN + 5);
        let (payload, consumed) = decode_frame(&buf).unwrap();
        assert_eq!(payload, b"hello");
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut buf = Vec::new();
        encode_frame(b"", &mut buf);
        let (payload, consumed) = decode_frame(&buf).unwrap();
        assert_eq!(payload, b"");
        assert_eq!(consumed, HEADER_LEN);
    }

    #[test]
    fn truncation_is_distinguished_from_corruption() {
        let mut buf = Vec::new();
        encode_frame(b"payload", &mut buf);

        // Cut anywhere: truncation, with exact need/have accounting.
        for cut in 0..buf.len() {
            match decode_frame(&buf[..cut]) {
                Err(FrameError::Truncated { need, have }) => {
                    assert_eq!(have, cut);
                    assert!(need > cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }

        // Flip a payload byte: corruption.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn oversize_length_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_frame(&buf), Err(FrameError::TooLarge(u32::MAX)));
    }

    #[test]
    fn frames_iterator_walks_stream_and_reports_trailer() {
        let mut buf = Vec::new();
        encode_frame(b"one", &mut buf);
        encode_frame(b"two", &mut buf);
        let clean_end = buf.len();
        encode_frame(b"three", &mut buf);
        buf.truncate(buf.len() - 2); // tear the last frame

        let mut frames = Frames::new(&buf);
        let collected: Vec<_> = frames.by_ref().map(|(_, p)| p.to_vec()).collect();
        assert_eq!(collected, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(frames.offset(), clean_end);
        assert!(matches!(
            frames.trailer(),
            Some(FrameError::Truncated { .. })
        ));

        // A clean stream ends with no trailer.
        let mut clean = Vec::new();
        encode_frame(b"x", &mut clean);
        let mut frames = Frames::new(&clean);
        assert_eq!(frames.by_ref().count(), 1);
        assert_eq!(frames.trailer(), None);
        assert_eq!(frames.offset(), clean.len());
    }
}
