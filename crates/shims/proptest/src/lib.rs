//! Offline shim for the `proptest` crate (see `crates/shims/README.md`).
//!
//! Implements the subset this workspace's property tests use: the
//! `proptest!`, `prop_oneof!`, `prop_assert*!` and `prop_assume!` macros,
//! a [`Strategy`] trait with `prop_map`, strategies for primitives
//! (`any::<T>()`), integer/char ranges, tuples, `Just`, simple regex
//! string patterns (`"[a-z]{1,3}"`, `".{0,64}"`), and
//! `collection::{vec, btree_map}`.
//!
//! Differences from upstream, deliberate for an offline test harness:
//! cases are generated from a seed derived *deterministically from the
//! test's module path and name*, so every run explores the same inputs;
//! there is **no shrinking** — a failure reports the case number and
//! seed, and re-running reproduces it exactly.

use std::collections::BTreeMap;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------
// deterministic RNG
// ---------------------------------------------------------------------

/// SplitMix64 generator driving all sampling.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// FNV-1a, used to derive a per-test base seed from its name.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------
// runner
// ---------------------------------------------------------------------

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Default config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// How a single case ended, when not `Ok`.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is not counted.
    Reject,
    /// A `prop_assert*!` failed.
    Fail(String),
}

/// Drive `case` until `config.cases` accepted runs succeed.
/// Panics (failing the enclosing `#[test]`) on the first failed case.
pub fn run_proptest<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base_seed = fnv1a64(name.as_bytes());
    let mut passed: u32 = 0;
    let mut rejected: u64 = 0;
    let mut i: u64 = 0;
    while passed < config.cases {
        let mut rng = TestRng::new(base_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        i += 1;
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected < u64::from(config.cases).saturating_mul(64).max(1024),
                    "proptest '{name}': too many prop_assume! rejections ({rejected})"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest '{name}' failed on case #{i} (base seed {base_seed:#018x}): {msg}")
            }
        }
    }
}

// ---------------------------------------------------------------------
// strategies
// ---------------------------------------------------------------------

/// A recipe for generating values of `Self::Value`.
///
/// Object-safe (`prop_map` is `Self: Sized`) so heterogeneous strategies
/// can be unioned by `prop_oneof!`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy applying `f` to every generated value.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy ([`any`]).
pub trait Arbitrary {
    /// Draw a uniform value over the type's domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Whole-domain strategy for `T` (`any::<u8>()` etc.).
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T`'s whole domain.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }

        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Mostly ASCII with occasional multibyte scalars — enough to
        // exercise UTF-8 handling without generating pathological input.
        match rng.below(10) {
            0 => ['é', 'λ', '中', '🦀', 'ß', '↔'][rng.below(6) as usize],
            _ => char::from(0x20 + rng.below(0x5F) as u8),
        }
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($s:ident / $v:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($v,)+) = self;
                ($($v.sample(rng),)+)
            }
        }
    )*};
}

impl_strategy_tuple! {
    (A / a, B / b)
    (A / a, B / b, C / c)
    (A / a, B / b, C / c, D / d)
    (A / a, B / b, C / c, D / d, E / e)
}

/// Uniform choice between boxed strategies (built by `prop_oneof!`).
pub struct Union<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// A union over `arms`; must be non-empty.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        self.arms[rng.below(self.arms.len() as u64) as usize].sample(rng)
    }
}

// ----- simple regex string strategies --------------------------------

/// Alphabet of a `"[a-z]{1,3}"`-style pattern.
enum Alphabet {
    /// Explicit characters from a `[...]` class.
    Chars(Vec<char>),
    /// `.`: any (printable-ish) character.
    AnyChar,
}

/// Parse the tiny regex dialect the tests use: `[class]{m,n}` / `.{m,n}`.
fn parse_pattern(pat: &str) -> (Alphabet, RangeInclusive<usize>) {
    let (alphabet, rest) = if let Some(body) = pat.strip_prefix('[') {
        let (class, rest) = body
            .split_once(']')
            .unwrap_or_else(|| panic!("unsupported regex strategy {pat:?}: unclosed '['"));
        let cs: Vec<char> = class.chars().collect();
        let mut chars = Vec::new();
        let mut i = 0;
        while i < cs.len() {
            if i + 2 < cs.len() && cs[i + 1] == '-' {
                let (lo, hi) = (cs[i] as u32, cs[i + 2] as u32);
                assert!(lo <= hi, "bad char range in regex strategy {pat:?}");
                chars.extend((lo..=hi).filter_map(char::from_u32));
                i += 3;
            } else {
                chars.push(cs[i]);
                i += 1;
            }
        }
        (Alphabet::Chars(chars), rest)
    } else if let Some(rest) = pat.strip_prefix('.') {
        (Alphabet::AnyChar, rest)
    } else {
        panic!(
            "unsupported regex strategy {pat:?} (shim supports '[class]{{m,n}}' and '.{{m,n}}')"
        );
    };
    let counts = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unsupported regex strategy {pat:?}: expected '{{m,n}}'"));
    let (m, n) = counts
        .split_once(',')
        .unwrap_or_else(|| panic!("unsupported regex strategy {pat:?}: expected '{{m,n}}'"));
    let m: usize = m.trim().parse().expect("regex strategy: bad lower count");
    let n: usize = n.trim().parse().expect("regex strategy: bad upper count");
    (alphabet, m..=n)
}

impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let (alphabet, counts) = parse_pattern(self);
        let (lo, hi) = (*counts.start(), *counts.end());
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        (0..len)
            .map(|_| match &alphabet {
                Alphabet::Chars(cs) => cs[rng.below(cs.len() as u64) as usize],
                Alphabet::AnyChar => char::arbitrary(rng),
            })
            .collect()
    }
}

// ----- collections ----------------------------------------------------

/// `collection::vec` / `collection::btree_map` strategies.
pub mod collection {
    use super::*;

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// A vector whose length is drawn from `size` and whose elements are
    /// drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// See [`btree_map`].
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        val: V,
        size: Range<usize>,
    }

    /// A map with *up to* `size` entries (duplicate sampled keys collapse,
    /// as with upstream's strategy before it retries).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        val: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy { key, val, size }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let want = self.size.start + rng.below(span) as usize;
            let mut out = BTreeMap::new();
            // Bounded retries: key collisions may leave the map smaller
            // than `want`, which the tests tolerate.
            for _ in 0..want.saturating_mul(4) {
                if out.len() >= want {
                    break;
                }
                out.insert(self.key.sample(rng), self.val.sample(rng));
            }
            out
        }
    }
}

// ---------------------------------------------------------------------
// macros
// ---------------------------------------------------------------------

/// The proptest entry macro: a block of `#[test]` functions whose
/// arguments are drawn from strategies (`arg in strategy`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::run_proptest(
                &__config,
                concat!(module_path!(), "::", stringify!($name)),
                |__rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), __rng);)*
                    let __case = || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    __case()
                },
            );
        }
    )*};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        let __arms: ::std::vec::Vec<::std::boxed::Box<dyn $crate::Strategy<Value = _>>> =
            vec![$(::std::boxed::Box::new($arm)),+];
        $crate::Union::new(__arms)
    }};
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
                __l, __r
            )));
        }
    }};
}

/// Reject (not fail) the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// The glob-import surface (`use proptest::prelude::*;`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Any, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, Union,
    };

    /// Namespace mirror of upstream's `prelude::prop` module.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_seed() {
        let strat = prop::collection::vec((any::<u8>(), "[a-z]{1,3}"), 0..8);
        let mut r1 = crate::TestRng::new(99);
        let mut r2 = crate::TestRng::new(99);
        assert_eq!(strat.sample(&mut r1), strat.sample(&mut r2));
    }

    #[test]
    fn regex_strategies_respect_class_and_counts() {
        let mut rng = crate::TestRng::new(5);
        for _ in 0..200 {
            let s = "[a-c]{1,3}".sample(&mut rng);
            assert!((1..=3).contains(&s.chars().count()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            let t = ".{0,16}".sample(&mut rng);
            assert!(t.chars().count() <= 16);
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::TestRng::new(0);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[strat.sample(&mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro pipeline end-to-end: sampling, config, assertions.
        #[test]
        fn macro_roundtrip(v in prop::collection::vec(any::<u8>(), 1..5), x in 0usize..10) {
            prop_assert!(!v.is_empty(), "vec in 1..5 must be non-empty, got {:?}", v);
            prop_assert!(x < 10);
            prop_assert_eq!(v.len(), v.clone().len());
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u8..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }
}
