//! Minimal deterministic property-testing harness exposing the subset of the
//! `proptest` crate API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace maps
//! the `proptest` dev-dependency name onto this crate. Differences from real
//! proptest, by design:
//!
//! - **No shrinking.** A failing case reports the test name, case index, and
//!   per-case seed; re-running is fully deterministic, so the failing input
//!   is reproducible by construction.
//! - **Deterministic seeds.** Case `i` of test `t` draws from the workspace's
//!   `StdRng` (the in-tree `rand` stand-in) seeded by `fnv(module_path, t) +
//!   i`; there is no OS entropy anywhere, matching the repo-wide "pure
//!   function of its seeds" rule.
//! - The [`Strategy`] trait is generation-only (`Value` + `generate`), with
//!   the combinators the tests use: `prop_map`, ranges, tuples, [`Just`],
//!   [`collection::vec`], [`collection::hash_set`], [`sample::select`],
//!   [`sample::Index`], [`prop_oneof!`], and [`any`].

#![warn(unreachable_pub)]

use std::collections::HashSet;
use std::hash::Hash;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Deterministic generator driving a single property-test case: the
/// workspace's one PRNG, seeded per case.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

/// FNV-1a over a string, for deriving per-test seeds.
// A copy of `almanac_flash::fnv1a`: this crate mirrors the external
// `proptest`, which depends on no crate of this workspace.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl TestRng {
    /// Builds the generator for one case of one test.
    pub fn for_case(test_path: &str, case: u32) -> Self {
        TestRng(StdRng::seed_from_u64(
            fnv1a(test_path).wrapping_add(case as u64),
        ))
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_raw()
    }

    /// Uniform value below `n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Failure value a property-test body can bubble up with `?`.
///
/// Mirrors `proptest::test_runner::TestCaseError` closely enough for helper
/// functions returning `Result<(), TestCaseError>`; the runner treats an
/// `Err` exactly like an assertion panic.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Builds a failure with the given reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runner configuration; only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases generated per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A type-erased strategy (see [`Strategy::boxed`]).
pub struct BoxedStrategy<V>(Rc<dyn Strategy<Value = V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "strategy on empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "strategy on empty range");
                let span = (end as u128).wrapping_sub(start as u128) + 1;
                start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical full-range strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
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

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// The canonical strategy for `T` (see [`any`]).
#[derive(Debug, Clone, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// A weighted union of same-valued strategies; built by [`prop_oneof!`].
pub struct OneOf<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u32,
}

impl<V> OneOf<V> {
    /// Builds a union from `(weight, strategy)` arms.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w).sum::<u32>().max(1);
        OneOf { arms, total }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total as u64) as u32;
        for (w, s) in &self.arms {
            if pick < *w {
                return s.generate(rng);
            }
            pick -= w;
        }
        self.arms
            .last()
            .expect("prop_oneof! with no arms")
            .1
            .generate(rng)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::*;

    /// Size specification: a fixed size or a range of sizes.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vector of values from `element`, sized by `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Strategy for `HashSet<S::Value>`.
    pub struct HashSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for HashSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Eq + Hash,
        R: SizeRange,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            let mut out = HashSet::with_capacity(n);
            // Collisions shrink the set; retry a bounded number of times so
            // the requested size is met for all realistic element domains.
            let mut attempts = 0;
            while out.len() < n && attempts < n * 16 + 64 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }

    /// Hash set of values from `element`, sized by `size`.
    pub fn hash_set<S, R>(element: S, size: R) -> HashSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Eq + Hash,
        R: SizeRange,
    {
        HashSetStrategy { element, size }
    }
}

/// Sampling strategies (`proptest::sample`).
pub mod sample {
    use super::*;

    /// An opaque index resolved against a runtime collection length.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Resolves the index against a collection of `len` elements.
        /// Panics when `len == 0`, as in real proptest.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }

        /// Resolves against a slice and returns the element.
        pub fn get<'a, T>(&self, slice: &'a [T]) -> &'a T {
            &slice[self.index(slice.len())]
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }

    /// Strategy yielding clones of elements of `options`.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.0.is_empty(), "select on empty options");
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }

    /// Picks uniformly from `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        Select(options)
    }
}

/// The `proptest::prelude` shape: everything tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };

    /// The `prop` module alias (`prop::sample`, `prop::collection`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Weighted choice over strategies with a common value type.
///
/// `prop_oneof![3 => a, 1 => b]` picks `a` three times as often as `b`;
/// unweighted arms default to weight 1.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Declares deterministic property tests.
///
/// Mirrors the `proptest!` surface used in this workspace: an optional
/// `#![proptest_config(...)]` header followed by `#[test]` functions whose
/// arguments are `name in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (@run ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let path = concat!(module_path!(), "::", stringify!($name));
                for case in 0..config.cases {
                    let mut __rng = $crate::TestRng::for_case(path, case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    let run = || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body;
                        Ok(())
                    };
                    match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                        Ok(Ok(())) => {}
                        Ok(Err(err)) => {
                            panic!(
                                "proptest failure: {path} case {case}/{}: {err} \
                                 (deterministic; rerun reproduces it)",
                                config.cases
                            );
                        }
                        Err(panic) => {
                            eprintln!(
                                "proptest failure: {path} case {case}/{} (deterministic; rerun reproduces it)",
                                config.cases
                            );
                            ::std::panic::resume_unwind(panic);
                        }
                    }
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// Which cases every property test in the workspace runs is a function
    /// of this stream: pinned, so that a change to the seeding or the
    /// generator cannot silently swap them.
    #[test]
    fn case_streams_are_pinned() {
        let mut rng = TestRng::for_case("almanac::pinned", 7);
        let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0x693c_5e8a_d9b3_8219,
                0xbc5b_60d9_aaf4_54b4,
                0xd566_429c_14b5_9411,
                0xaa41_3b9d_e708_1bbc,
            ]
        );
    }

    #[test]
    fn deterministic_generation() {
        let strat = crate::collection::vec(0u64..100, 1..16usize);
        let mut a = TestRng::for_case("x", 3);
        let mut b = TestRng::for_case("x", 3);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    #[test]
    fn oneof_respects_arms() {
        let strat = prop_oneof![
            3 => (0u32..10).prop_map(|v| v as u64),
            1 => Just(99u64),
        ];
        let mut rng = TestRng::for_case("arms", 0);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v < 10 || v == 99);
        }
    }

    #[test]
    fn hash_set_meets_size() {
        let strat = crate::collection::hash_set(any::<u64>(), 8..16usize);
        let mut rng = TestRng::for_case("hs", 1);
        let s = strat.generate(&mut rng);
        assert!((8..16).contains(&s.len()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_arguments(v in crate::collection::vec(any::<u8>(), 0..32usize), n in 1u64..5) {
            prop_assert!(v.len() < 32);
            prop_assert!((1..5).contains(&n));
        }
    }
}
