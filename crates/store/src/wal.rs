//! WAL record model: the two payload shapes the store frames into its
//! segment files, and the FNV digest chain that links commit records.
//!
//! Every record travels inside one [`sm_net::frame`] frame, so torn
//! writes and bit rot are detected before a payload byte is interpreted.
//! Payloads are encoded with the `sm_codec` primitives the wire layer
//! uses, starting with a one-byte tag:
//!
//! ```text
//! tag 1  Commit    seq · child path · marks · ops-count · ops bytes · chain
//! tag 2  Snapshot  seq · marks · per-path chains · state bytes
//! ```
//!
//! Tag 3 was a delta snapshot, written to `snap-delta-<seq>` files by
//! older stores. It decodes as [`DecodeError::BadTag`], and recovery
//! never lists those files: a delta never authorized pruning, so the
//! full snapshot plus the WAL it left behind always cover it.
//!
//! The `ops bytes` of a commit are exactly what
//! [`Persist::encode_committed_since`](sm_mergeable::Persist::encode_committed_since)
//! produced at the commit point, so recovery replays them through the
//! ordinary [`Persist::apply_log`](sm_mergeable::Persist::apply_log) OT
//! path. The `chain` field is the per-child-path FNV-1a hash chain after
//! folding in this record (see `chain_update`); a snapshot carries the
//! whole chain map so the verification survives log truncation.

use bytes::{Buf, BufMut};
/// The byte-buffer types record payloads are built from, re-exported so
/// tools (and tests) can construct or rewrite records without depending
/// on the buffer crate directly.
pub use bytes::{Bytes, BytesMut};
use sm_codec::{get_blob, get_tag, put_blob, Decode, DecodeError, Encode};

/// FNV-1a offset basis — the same constants the `sm_obs` determinism
/// auditor uses, so the two digest families are directly comparable in
/// traces and test output.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_step(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one commit into a path's chain: the previous chain value, the
/// commit's sequence number, then every serialized operation byte.
pub(crate) fn chain_update(prev: u64, seq: u64, ops: &[u8]) -> u64 {
    let h = fnv_step(prev, &seq.to_le_bytes());
    fnv_step(h, ops)
}

/// One journaled root-task merge commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// Sequence number, contiguous from 1 within one store.
    pub seq: u64,
    /// `TaskPath` ids of the merged child.
    pub child: Vec<u64>,
    /// The root data's absolute history marks right after this commit.
    pub marks: Vec<usize>,
    /// Span-compacted operations encoded by `encode_committed_since`.
    pub ops: Bytes,
    /// Operation count inside `ops` (cross-check for replay).
    pub ops_count: u64,
    /// The child path's digest chain after folding this record in.
    pub chain: u64,
}

/// A full-state snapshot covering every commit with `seq <= self.seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// Last covered commit sequence (0 = genesis: nothing but the
    /// initial state).
    pub seq: u64,
    /// The root data's absolute history marks at the snapshot point.
    pub marks: Vec<usize>,
    /// Digest chain per child path, as of `seq`.
    pub chains: Vec<(Vec<u64>, u64)>,
    /// `Persist::encode_state` of the root data.
    pub state: Bytes,
}

/// A decoded WAL payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Tag 1.
    Commit(CommitRecord),
    /// Tag 2.
    Snapshot(SnapshotRecord),
}

const TAG_COMMIT: u8 = 1;
const TAG_SNAPSHOT: u8 = 2;

impl Record {
    /// Serialize into `buf` (tag byte first).
    pub fn encode(&self, buf: &mut BytesMut) {
        match self {
            Record::Commit(c) => {
                buf.put_u8(TAG_COMMIT);
                c.seq.encode(buf);
                c.child.encode(buf);
                c.marks.encode(buf);
                c.ops_count.encode(buf);
                put_blob(buf, c.ops.as_slice());
                c.chain.encode(buf);
            }
            Record::Snapshot(s) => {
                buf.put_u8(TAG_SNAPSHOT);
                s.seq.encode(buf);
                s.marks.encode(buf);
                s.chains.encode(buf);
                put_blob(buf, s.state.as_slice());
            }
        }
    }

    /// Serialize to a fresh byte buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decode one record from `buf`.
    pub fn decode(buf: &mut Bytes) -> Result<Record, DecodeError> {
        // The fields are decoded in the order they are written below,
        // which is the byte order `encode` writes them in.
        match get_tag(buf)? {
            TAG_COMMIT => Ok(Record::Commit(CommitRecord {
                seq: u64::decode(buf)?,
                child: Vec::decode(buf)?,
                marks: Vec::decode(buf)?,
                ops_count: u64::decode(buf)?,
                ops: get_blob(buf)?,
                chain: u64::decode(buf)?,
            })),
            TAG_SNAPSHOT => Ok(Record::Snapshot(SnapshotRecord {
                seq: u64::decode(buf)?,
                marks: Vec::decode(buf)?,
                chains: Vec::decode(buf)?,
                state: get_blob(buf)?,
            })),
            tag => Err(DecodeError::BadTag(tag)),
        }
    }

    /// Decode a record that must occupy `bytes` exactly.
    pub fn from_bytes(bytes: &[u8]) -> Result<Record, DecodeError> {
        Record::from_shared(Bytes::copy_from_slice(bytes))
    }

    /// [`Record::from_bytes`] without the copy: a commit's op bytes and a
    /// snapshot's state bytes are slices of `buf`'s storage. Recovery
    /// reads a segment into one buffer and decodes each frame's payload
    /// from a [`Bytes::slice_ref`] of it.
    pub(crate) fn from_shared(mut buf: Bytes) -> Result<Record, DecodeError> {
        let record = Record::decode(&mut buf)?;
        if buf.has_remaining() {
            return Err(DecodeError::BadLength(buf.remaining() as u64));
        }
        Ok(record)
    }
}

/// File name of the WAL segment whose first commit is `first_seq`.
pub(crate) fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}")
}

/// File name of the snapshot covering commits `..= seq`.
pub(crate) fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:020}")
}

/// Parse a `wal-…` / `snap-…` file name back into its sequence number.
pub(crate) fn parse_seq(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_codec::put_varint;

    #[test]
    fn commit_record_roundtrips() {
        let rec = Record::Commit(CommitRecord {
            seq: 42,
            child: vec![0, 3, 1],
            marks: vec![10, 0, 7],
            ops: Bytes::copy_from_slice(&[1, 2, 3, 4]),
            ops_count: 2,
            chain: u64::MAX - 5,
        });
        let bytes = rec.to_bytes();
        assert_eq!(Record::from_bytes(bytes.as_slice()).unwrap(), rec);
    }

    #[test]
    fn snapshot_record_roundtrips() {
        let rec = Record::Snapshot(SnapshotRecord {
            seq: 7,
            marks: vec![3],
            chains: vec![(vec![0, 1], 99), (vec![0, 2], FNV_OFFSET)],
            state: Bytes::copy_from_slice(b"state-bytes"),
        });
        let bytes = rec.to_bytes();
        assert_eq!(Record::from_bytes(bytes.as_slice()).unwrap(), rec);
    }

    /// The journal's byte format, pinned: a change here breaks every
    /// journal already on disk.
    #[test]
    fn record_bytes_are_pinned() {
        let commit = Record::Commit(CommitRecord {
            seq: 300,
            child: vec![0, 3, 1],
            marks: vec![10, 0, 7],
            ops: Bytes::copy_from_slice(&[1, 2, 3, 4]),
            ops_count: 2,
            chain: 0x1234,
        });
        #[rustfmt::skip]
        let want: &[u8] = &[
            1,                  // tag: commit
            0xAC, 0x02,         // seq 300
            3, 0, 3, 1,         // child path
            3, 10, 0, 7,        // marks
            2,                  // ops count
            4, 1, 2, 3, 4,      // ops bytes
            0xB4, 0x24,         // chain 0x1234
        ];
        assert_eq!(commit.to_bytes().as_slice(), want);

        let snapshot = Record::Snapshot(SnapshotRecord {
            seq: 7,
            marks: vec![3, 200],
            chains: vec![(vec![0, 1], 99), (vec![0, 2], 5)],
            state: Bytes::copy_from_slice(b"st"),
        });
        #[rustfmt::skip]
        let want: &[u8] = &[
            2,                  // tag: snapshot
            7,                  // seq
            2, 3, 0xC8, 0x01,   // marks [3, 200]
            2,                  // two chains
            2, 0, 1, 99,        // [0, 1] -> 99
            2, 0, 2, 5,         // [0, 2] -> 5
            2, b's', b't',      // state bytes
        ];
        assert_eq!(snapshot.to_bytes().as_slice(), want);
    }

    #[test]
    fn adversarial_lengths_error_instead_of_allocating() {
        // A commit whose ops-length prefix claims more bytes than exist.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_COMMIT);
        put_varint(&mut buf, 1); // seq
        put_varint(&mut buf, 0); // empty path
        put_varint(&mut buf, 0); // empty marks
        put_varint(&mut buf, 0); // ops_count
        put_varint(&mut buf, u64::MAX); // ops length: absurd
        let err = Record::from_bytes(buf.freeze().as_slice()).unwrap_err();
        assert_eq!(err, DecodeError::BadLength(u64::MAX));

        // Unknown tag.
        assert_eq!(
            Record::from_bytes(&[9]).unwrap_err(),
            DecodeError::BadTag(9)
        );

        // Trailing garbage after a valid record.
        let rec = Record::Snapshot(SnapshotRecord {
            seq: 0,
            marks: vec![],
            chains: vec![],
            state: Bytes::new(),
        });
        let mut bytes = rec.to_bytes().to_vec();
        bytes.push(0xAB);
        assert!(Record::from_bytes(&bytes).is_err());
    }

    #[test]
    fn chain_is_order_and_content_sensitive() {
        let a = chain_update(FNV_OFFSET, 1, b"ops-a");
        let b = chain_update(a, 2, b"ops-b");
        let b_swapped = chain_update(chain_update(FNV_OFFSET, 2, b"ops-b"), 1, b"ops-a");
        assert_ne!(b, b_swapped);
        assert_ne!(chain_update(a, 2, b"ops-c"), b);
        assert_ne!(chain_update(a, 3, b"ops-b"), b);
    }

    #[test]
    fn file_names_sort_numerically() {
        let names = [segment_name(2), segment_name(10), segment_name(100)];
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(parse_seq(&segment_name(17), "wal-"), Some(17));
        assert_eq!(parse_seq(&snapshot_name(0), "snap-"), Some(0));
        assert_eq!(parse_seq("other-file", "wal-"), None);
    }
}
