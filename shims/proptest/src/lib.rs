//! Offline stand-in for the `proptest` crate.
//!
//! This workspace builds in environments with no access to crates.io, so the
//! property-testing subset it uses is reimplemented here: the [`Strategy`]
//! trait with `prop_map`/`prop_filter_map`, range and tuple strategies,
//! `prop_oneof!`, `prop::collection::vec`, `any::<T>()`, the `proptest!`
//! macro and the `prop_assert*` family.
//!
//! Differences from the real crate, by design:
//!
//! - **No shrinking.** A failing case panics with the seed case index so it
//!   can be re-run, but inputs are not minimised.
//! - **Deterministic by default.** Each test's RNG is seeded from the hash
//!   of its function name, so failures reproduce across runs; set
//!   `PROPTEST_SEED=<u64>` to explore a different stream.
//! - Cases default to 64 per property (`ProptestConfig::with_cases`
//!   overrides, `PROPTEST_CASES` caps from the environment).
//!
//! ```
//! use proptest::prelude::*;
//!
//! proptest! {
//!     // `#[test]` goes here in real test code; omitted so this doc
//!     // example can call the property directly.
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! addition_commutes();
//! ```

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;

/// Re-exports for `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, Strategy,
    };
}

/// Test-runner configuration (subset).
pub mod test_runner {
    /// Number-of-cases knob of the `proptest!` macro.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

/// The RNG handed to strategies (a deterministic [`StdRng`]).
pub type TestRng = StdRng;

/// A generator of random values of one type.
///
/// Object-safety is preserved (`Box<dyn Strategy<Value = T>>` works) by
/// keeping the combinators on `Self: Sized`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Map through a partial function, re-drawing on `None` (bounded, then
    /// panics mentioning `whence`).
    fn prop_filter_map<U, F: Fn(Self::Value) -> Option<U>>(
        self,
        whence: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            inner: self,
            whence,
            f,
        }
    }

    /// Box the strategy (type erasure for heterogeneous collections).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A boxed, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        for _ in 0..1000 {
            if let Some(v) = (self.f)(self.inner.sample(rng)) {
                return v;
            }
        }
        panic!(
            "prop_filter_map({:?}) rejected 1000 consecutive draws",
            self.whence
        );
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, f64);

macro_rules! impl_signed_range_strategy {
    ($($t:ty => $u:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                self.start.wrapping_add(rng.random_range(0..span) as $t)
            }
        }
    )*};
}
impl_signed_range_strategy!(i8 => u8, i16 => u16, i32 => u32, i64 => u64);

// f64 signed ranges (e.g. -6.3..6.3) need their own treatment because the
// unsigned trick above does not apply.
impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.random_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a full-domain "any value" strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.random::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric, spanning several orders of magnitude.
        let mag = rng.random_range(-100.0..100.0f64);
        let scale = 10f64.powi(rng.random_range(0..6u32) as i32 - 3);
        mag * scale
    }
}

/// The full-domain strategy for `T` (`any::<u8>()` etc.).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// See [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Namespaced strategy constructors (`prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use rand::RngExt;
        use std::ops::Range;

        /// A `Vec` whose length is drawn from `len` and whose elements are
        /// drawn from `element`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = rng.random_range(self.len.clone());
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Uniformly pick one of several same-valued strategies each draw.
pub struct OneOf<T> {
    choices: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// Build from boxed choices.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn new(choices: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one choice");
        OneOf { choices }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let idx = rng.random_range(0..self.choices.len());
        self.choices[idx].sample(rng)
    }
}

/// Pick uniformly among the listed strategies (all must produce the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$(Box::new($strategy) as $crate::BoxedStrategy<_>),+])
    };
}

/// Assert inside a property (panics with case context on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Skip the current case when an assumption does not hold.
///
/// In this shim the case simply returns (counts as passed); the real crate
/// re-draws instead.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

#[doc(hidden)]
pub fn seed_for(test_name: &str) -> u64 {
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        if let Ok(v) = s.parse() {
            return v;
        }
    }
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[doc(hidden)]
pub fn cases_for(configured: u32) -> u32 {
    match std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(env_cases) => configured.min(env_cases),
        None => configured,
    }
}

#[doc(hidden)]
pub fn fresh_rng(seed: u64, case: u32) -> TestRng {
    <TestRng as SeedableRng>::seed_from_u64(seed.wrapping_add(u64::from(case)))
}

/// Declare property tests: each `#[test] fn name(arg in strategy, …) { … }`
/// runs the body over `cases` random draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @cfg ($cfg) $($rest)* }
    };
    (@cfg ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::cases_for(($cfg).cases);
                let seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..cases {
                    let mut rng = $crate::fresh_rng(seed, case);
                    $(let $arg = $crate::Strategy::sample(&$strat, &mut rng);)*
                    // The closure gives `prop_assume!`'s early `return`
                    // case-skipping (not test-ending) semantics.
                    #[allow(clippy::redundant_closure_call)]
                    (|| $body)();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..17, y in -2.5f64..2.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.5..2.5).contains(&y));
        }

        #[test]
        fn vec_strategy_length(v in prop::collection::vec(0u8..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn oneof_and_map_compose(k in prop_oneof![
            (0u64..10).prop_map(|v| v * 2),
            (100u64..110).prop_map(|v| v + 1),
        ]) {
            prop_assert!(k % 2 == 0 || (101u64..=110).contains(&k), "k = {k}");
        }

        #[test]
        fn filter_map_filters(q in (0u32..100).prop_filter_map("even", |v| {
            if v % 2 == 0 { Some(v) } else { None }
        })) {
            prop_assert_eq!(q % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::fresh_rng(crate::seed_for("x"), 0);
        let mut b = crate::fresh_rng(crate::seed_for("x"), 0);
        let s = 0u64..1000;
        assert_eq!(
            crate::Strategy::sample(&s, &mut a),
            crate::Strategy::sample(&s, &mut b)
        );
    }
}
