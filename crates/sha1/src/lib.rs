//! SHA-1 (RFC 3174 / FIPS 180-1), implemented from scratch.
//!
//! The Spawn & Merge paper drives its evaluation (§III) with a host workload
//! of repeated SHA-1 hashing: *"To create some unpredictable processing load
//! on hosts the destination address is derived from the message payload using
//! cryptographic operations (i.e. SHA-1 hashing)"*. None of the crates in the
//! approved offline dependency set provide SHA-1, so this crate implements it
//! directly and validates the implementation against the official FIPS test
//! vectors (see the test module).
//!
//! SHA-1 is used here strictly as a *deterministic compute workload* — its
//! cryptographic brokenness is irrelevant for benchmarking purposes.
//!
//! # Example
//!
//! ```
//! let digest = sm_sha1::sha1(b"abc");
//! assert_eq!(sm_sha1::to_hex(&digest), "a9993e364706816aba3e25717850c26c9cd0d89d");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Length of a SHA-1 digest in bytes.
pub const DIGEST_LEN: usize = 20;

/// A SHA-1 digest.
pub type Digest = [u8; DIGEST_LEN];

const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Incremental SHA-1 hasher.
///
/// Feed data with [`Sha1::update`] and finish with [`Sha1::finalize`].
/// For one-shot hashing prefer [`sha1`].
#[derive(Debug, Clone)]
pub struct Sha1 {
    h: [u32; 5],
    /// Unprocessed tail of the input (always < 64 bytes after `update`).
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Create a fresh hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            h: H0,
            buf: [0u8; 64],
            buf_len: 0,
            len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;

        // Fill a partially occupied block first.
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if rest.is_empty() {
                // Input fully absorbed into the pending block; the tail
                // logic below must not clobber `buf_len`.
                return;
            }
        }

        // Whole blocks straight from the input.
        let mut chunks = rest.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }

        // Stash the tail.
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish the computation, producing the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80 then zeros up to the 8-byte length field, which
        // ends the block. A tail of 56 bytes or more leaves no room for
        // it: the zeros fill that block and one more block carries it.
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The SHA-1 compression function over one 64-byte block.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..80 {
            w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.h;

        for (t, &wt) in w.iter().enumerate() {
            let (f, k) = match t {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wt);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        self.h[0] = self.h[0].wrapping_add(a);
        self.h[1] = self.h[1].wrapping_add(b);
        self.h[2] = self.h[2].wrapping_add(c);
        self.h[3] = self.h[3].wrapping_add(d);
        self.h[4] = self.h[4].wrapping_add(e);
    }
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// Iterated SHA-1: `digest = sha1(sha1(...sha1(data)...))`, `iters` times.
///
/// This is the host workload knob `l` from the paper's evaluation: the load
/// on each simulated host is controlled by the number of hash iterations per
/// message. `iters == 0` returns `sha1(data)` applied once so that callers
/// always obtain a digest to derive a destination from.
pub fn sha1_iterated(data: &[u8], iters: usize) -> Digest {
    let mut d = sha1(data);
    for _ in 0..iters {
        d = sha1(&d);
    }
    d
}

/// Render a digest as lowercase hex.
pub fn to_hex(digest: &Digest) -> String {
    let mut s = String::with_capacity(DIGEST_LEN * 2);
    for b in digest {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Derive a small unsigned integer in `0..modulus` from a digest.
///
/// Used by the network simulator to derive the destination host id from the
/// message payload, exactly as the paper's non-deterministic setup does.
pub fn digest_to_index(digest: &Digest, modulus: usize) -> usize {
    assert!(modulus > 0, "modulus must be positive");
    let v = u64::from_be_bytes([
        digest[0], digest[1], digest[2], digest[3], digest[4], digest[5], digest[6], digest[7],
    ]);
    (v % modulus as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(input: &[u8]) -> String {
        to_hex(&sha1(input))
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let input = vec![b'a'; 1_000_000];
        assert_eq!(hex(&input), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn rfc_vector_two_blocks() {
        // RFC 3174 test 4: 80 repetitions of "01234567" (640 bytes).
        let input: Vec<u8> = b"01234567".iter().copied().cycle().take(640).collect();
        assert_eq!(hex(&input), "dea356a2cddd90c7a7ecedc5ebb563934f460452");
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            hex(b"The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn incremental_matches_oneshot_various_chunkings() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let expect = sha1(&data);
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 128, 500] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), expect, "chunk size {chunk}");
        }
    }

    #[test]
    fn boundary_lengths_55_56_57_63_64_65() {
        // Lengths around the padding boundary are the classic bug farm.
        // Reference digests computed from the canonical algorithm; we check
        // self-consistency between incremental and one-shot, plus a known one.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 121] {
            let data = vec![0x42u8; len];
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha1(&data), "len {len}");
        }
    }

    #[test]
    fn padding_boundaries_match_reference_digests() {
        // 0x42 repeated `len` times, digests from an independent SHA-1
        // (Python's `hashlib`): one-block and two-block paddings on both
        // sides of the 55/56-byte tail boundary, and a 20-byte digest input.
        let expect = [
            (0, "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (1, "ae4f281df5a5d0ff3cad6371f76d5c29b6d953ec"),
            (19, "8923ecf3550e9ca6cbb26066590fb619a2d65e71"),
            (20, "d7f6ecf2edc1156f8e8c525035f61a26a3a245d7"),
            (54, "9f577f3425985e9b9ec5b11c4ed76675eb4a2aeb"),
            (55, "f42fc57c149118d6307f96b17acc00f19b4c8de7"),
            (56, "021f99328a6a79566f055914466ae1654d16ab01"),
            (57, "115715576b51b2d3796193b3ad6620d87d871577"),
            (63, "a0c875abfda10c028ba33e42922d275c404c49e1"),
            (64, "84951fc23a4dafd10020ac349da1f5530fa65949"),
            (65, "550fdc7cb0c34885cf8632c33c7057947578142b"),
            (119, "646b992851b0ff16d471b27226bb4d3214c6390d"),
            (120, "6ddccad47235dfb88cea509e6eab58ae8d68ef5a"),
            (121, "85f475af9b0bd09dada65b69a356a4a37249d10f"),
        ];
        for (len, digest) in expect {
            assert_eq!(hex(&vec![0x42u8; len]), digest, "len {len}");
        }
    }

    #[test]
    fn iterated_zero_equals_single_hash() {
        assert_eq!(sha1_iterated(b"xyz", 0), sha1(b"xyz"));
    }

    #[test]
    fn iterated_chains() {
        let once = sha1(b"seed");
        let twice = sha1(&once);
        assert_eq!(sha1_iterated(b"seed", 1), twice);
        assert_eq!(sha1_iterated(b"seed", 2), sha1(&twice));
    }

    #[test]
    fn digest_to_index_in_range() {
        for m in [1usize, 2, 3, 7, 20, 1000] {
            for seed in 0..50u32 {
                let d = sha1(&seed.to_be_bytes());
                assert!(digest_to_index(&d, m) < m);
            }
        }
    }

    #[test]
    fn digest_to_index_spreads() {
        // With 200 samples over 20 buckets every bucket should be hit for a
        // well-mixed function; allow a couple of misses to avoid flakiness.
        let mut hits = [0usize; 20];
        for seed in 0..200u32 {
            let d = sha1(&seed.to_be_bytes());
            hits[digest_to_index(&d, 20)] += 1;
        }
        let empty = hits.iter().filter(|&&c| c == 0).count();
        assert!(empty <= 2, "too many empty buckets: {hits:?}");
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn digest_to_index_zero_modulus_panics() {
        digest_to_index(&sha1(b"x"), 0);
    }

    #[test]
    fn to_hex_roundtrip_format() {
        let d = sha1(b"abc");
        let h = to_hex(&d);
        assert_eq!(h.len(), 40);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
