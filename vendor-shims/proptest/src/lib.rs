//! Offline drop-in subset of the [`proptest`] crate.
//!
//! The workspace builds without network access, so the external
//! `proptest` dependency is replaced by this path crate. It keeps the
//! subset of the API the workspace's property tests use — the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`, integer/float range
//! strategies, [`prelude::Just`], `prop_oneof!`, `collection::vec`, `any`,
//! and `prop_assert!`/`prop_assert_eq!` — with a deliberately simpler engine:
//!
//! * case generation is driven by a fixed-seed SplitMix64 stream, so every
//!   run of a test explores the same deterministic case sequence;
//! * failing cases are reported via panic (the generated inputs are in the
//!   panic message) instead of being shrunk and persisted.
//!
//! Determinism is a feature here: the repo's own simulation contract is
//! "same seed → same timeline", and a reproducible test stream means CI
//! failures always replay locally.
//!
//! [`proptest`]: https://docs.rs/proptest

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// Deterministic generator state handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Modulo bias is irrelevant at test-generation quality.
        self.next_u64() % bound
    }
}

/// A value generator: the shim's notion of a proptest strategy.
pub trait Strategy {
    /// The type of values this strategy yields.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u64, usize, i16, i32);

impl Strategy for Range<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        assert!(self.start < self.end, "empty range");
        let span = self.end.wrapping_sub(self.start);
        let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
        self.start.wrapping_add(r)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
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

tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u32, u64, i32);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`prelude::any`].
#[derive(Debug, Clone, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A weighted choice among type-erased same-valued strategies (the
/// target of `prop_oneof!`).
pub struct OneOf<T> {
    arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
}

impl<T> OneOf<T> {
    /// A choice with `strategy` as its first arm, picked with odds
    /// `weight` / total. Generating panics if every weight is zero.
    pub fn new<S: Strategy<Value = T> + 'static>(weight: u32, strategy: S) -> OneOf<T> {
        OneOf { arms: Vec::new() }.or(weight, strategy)
    }

    /// Adds `strategy` as an arm picked with odds `weight` / total.
    pub fn or<S: Strategy<Value = T> + 'static>(mut self, weight: u32, strategy: S) -> OneOf<T> {
        self.arms.push((weight, Box::new(strategy)));
        self
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.below(total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("pick is below the weight total")
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy for `Vec<T>` with a length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Yields vectors whose elements come from `element` and whose length
    /// is uniform in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A failed (or rejected) test case; property bodies may `?` these.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Fails the current case with `reason`.
    pub fn fail(reason: impl Into<String>) -> TestCaseError {
        TestCaseError(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };

    /// The canonical strategy for "any value of `T`".
    pub fn any<T: crate::Arbitrary>() -> crate::Any<T> {
        crate::Any {
            _marker: std::marker::PhantomData,
        }
    }
}

/// Runs `f` for `config.cases` deterministic cases (used by the
/// [`proptest!`] expansion; not part of the public proptest API).
pub fn run_cases(test_name: &str, config: &ProptestConfig, mut f: impl FnMut(&mut TestRng)) {
    // Fixed seed: the case stream only depends on the test name, so a
    // failure always reproduces.
    let mut seed = 0xC0FF_EE00_D15E_A5E5u64;
    for b in test_name.bytes() {
        seed = seed.rotate_left(7) ^ b as u64;
    }
    let mut rng = TestRng::new(seed);
    for _ in 0..config.cases {
        f(&mut rng);
    }
}

/// Asserts a condition inside a property; failure panics with the message
/// and fails the surrounding case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Chooses among strategies with equal (or `weight =>`) odds.
#[macro_export]
macro_rules! prop_oneof {
    ($w0:expr => $s0:expr $(, $weight:expr => $strat:expr)* $(,)?) => {
        $crate::OneOf::new($w0 as u32, $s0)$(.or($weight as u32, $strat))*
    };
    ($s0:expr $(, $strat:expr)* $(,)?) => {
        $crate::OneOf::new(1, $s0)$(.or(1, $strat))*
    };
}

/// Declares property tests: each `fn` runs its body for many generated
/// inputs. Mirrors the real macro's surface for the forms the workspace
/// uses (`#![proptest_config(...)]`, `arg in strategy` parameters).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::run_cases(stringify!($name), &config, |rng| {
                    $(let $arg = $crate::Strategy::generate(&$strat, rng);)+
                    #[allow(clippy::redundant_closure_call)]
                    let result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!("test case failed: {e}");
                    }
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),+) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(42);
        for _ in 0..1000 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let f = (0.0f64..1.0).generate(&mut rng);
            assert!((0.0..1.0).contains(&f));
            let i = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn oneof_and_map_compose() {
        let s = prop_oneof![(0u64..10).prop_map(|v| v * 2), Just(1000u64),];
        let mut rng = TestRng::new(7);
        let mut saw_just = false;
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!(v == 1000 || (v < 20 && v % 2 == 0));
            saw_just |= v == 1000;
        }
        assert!(saw_just);
    }

    #[test]
    fn vec_strategy_respects_length() {
        let s = crate::collection::vec(0u64..5, 2..7);
        let mut rng = TestRng::new(9);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..7).contains(&v.len()));
        }
    }

    #[test]
    fn same_name_same_stream() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        crate::run_cases("x", &ProptestConfig::with_cases(16), |rng| {
            a.push(rng.next_u64())
        });
        crate::run_cases("x", &ProptestConfig::with_cases(16), |rng| {
            b.push(rng.next_u64())
        });
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_form_works(x in 0u64..100, v in crate::collection::vec(0u64..10, 1..4)) {
            prop_assert!(x < 100);
            prop_assert!(!v.is_empty() && v.len() < 4);
        }
    }
}
