//! Seeded input generation and digests.
//!
//! Every workload draws its inputs from [`Lcg`] streams salted off the
//! one `--seed`; the program under test sees only the generated inputs.
//! Digests are FNV-1a: cheap, and a digest here only has to differ when
//! bytes differ, not resist an adversary.

/// 64-bit LCG (Knuth's MMIX constants), top bits out.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// The stream `id` of `seed`: decorrelated by a golden-ratio salt and
    /// a few discarded steps (neighbouring seeds otherwise start alike).
    pub fn stream(seed: u64, id: u64) -> Self {
        let mut lcg = Lcg(seed ^ (id + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for _ in 0..4 {
            lcg.next();
        }
        lcg
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// The next value reduced below `bound` (a zero bound counts as 1).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// Incremental FNV-1a over bytes and integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

/// FNV-1a of one byte string.
pub fn fnv(data: &[u8]) -> u64 {
    Fnv::default().bytes(data).0
}

/// FNV-1a of a structure's `Persist::encode_state` bytes — the state
/// digest every output check compares.
pub fn state_digest<D: spawn_merge::Persist>(data: &D) -> u64 {
    let mut buf = bytes::BytesMut::new();
    data.encode_state(&mut buf);
    fnv(buf.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let draw = |seed, id| {
            let mut l = Lcg::stream(seed, id);
            (0..8).map(|_| l.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert!(Lcg::stream(1, 1).below(0) == 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::default().u64(1).0, fnv(&1u64.to_le_bytes()));
    }
}
