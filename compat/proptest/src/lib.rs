//! Offline drop-in subset of the `proptest` 1.x API.
//!
//! This workspace builds in environments with no crates-registry access,
//! so the real `proptest` cannot be downloaded. This vendored stand-in
//! implements the surface the workspace's property tests use: the
//! [`strategy::Strategy`] trait over ranges / tuples / [`strategy::Just`] /
//! `prop_map` / unions, [`arbitrary::any`], `prop::collection::vec`, the
//! [`proptest!`] / [`prop_oneof!`] / `prop_assert*` / [`prop_assume!`]
//! macros, and [`test_runner::ProptestConfig`].
//!
//! Differences from upstream, deliberately accepted: cases are drawn from
//! a deterministic per-test seed (derived from the test name) instead of
//! an entropy source, and there is no shrinking — a failing case reports
//! the raw inputs' debug formatting via the assertion message and the
//! case index. Determinism actually helps here: failures reproduce
//! exactly under `cargo test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Test-runner configuration and failure types.
pub mod test_runner {
    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the test as a whole fails.
        Fail(String),
        /// `prop_assume!` rejected the inputs; the case is skipped.
        Reject(String),
    }

    impl TestCaseError {
        /// Builds the failure variant.
        pub fn fail(msg: impl Into<String>) -> Self {
            Self::Fail(msg.into())
        }

        /// Builds the rejection variant.
        pub fn reject(msg: impl Into<String>) -> Self {
            Self::Reject(msg.into())
        }
    }

    /// Runner knobs (subset of upstream's `ProptestConfig`).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Hard cap on generated cases, counting rejected ones.
        pub max_global_rejects: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases, ..Self::default() }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256, max_global_rejects: 65_536 }
        }
    }

    /// Drives one `proptest!`-generated test function. `case` generates
    /// inputs from the per-case RNG and runs the body.
    pub fn run(
        test_name: &str,
        config: &ProptestConfig,
        mut case: impl FnMut(&mut rand::rngs::SmallRng) -> Result<(), TestCaseError>,
    ) {
        use rand::SeedableRng;
        // Deterministic seed per test name so failures reproduce.
        let seed = test_name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let mut passed = 0u32;
        let mut rejected = 0u32;
        let mut index = 0u32;
        while passed < config.cases {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ u64::from(index));
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    assert!(
                        rejected <= config.max_global_rejects,
                        "proptest '{test_name}': too many prop_assume! rejections \
                         ({rejected}) before reaching {} passing cases",
                        config.cases
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest '{test_name}' failed at case #{index}: {msg}");
                }
            }
            index += 1;
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and combinators.
pub mod strategy {
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value` (subset of
    /// upstream's `Strategy`; sampling replaces the value-tree model and
    /// there is no shrinking).
    pub trait Strategy {
        /// The type of values this strategy produces.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut SmallRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erases the concrete strategy type (used by [`crate::prop_oneof!`]).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe sampling, so strategies of one value type can be mixed.
    trait DynStrategy {
        type Value;
        fn sample_dyn(&self, rng: &mut SmallRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn sample_dyn(&self, rng: &mut SmallRng) -> S::Value {
            self.sample(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<Value = V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn sample(&self, rng: &mut SmallRng) -> V {
            self.0.sample_dyn(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut SmallRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut SmallRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice among same-valued strategies (the [`crate::prop_oneof!`]
    /// backend).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union; panics on an empty option list.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Self { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut SmallRng) -> V {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].sample(rng)
        }
    }

    impl<T> Strategy for Range<T>
    where
        T: rand::SampleUniform + rand::HasPredecessor + Copy + 'static,
        Range<T>: rand::SampleRange<T>,
    {
        type Value = T;
        fn sample(&self, rng: &mut SmallRng) -> T {
            rng.gen_range(self.start..self.end)
        }
    }

    impl<T> Strategy for RangeInclusive<T>
    where
        T: rand::SampleUniform + Copy + 'static,
        RangeInclusive<T>: rand::SampleRange<T> + Clone,
    {
        type Value = T;
        fn sample(&self, rng: &mut SmallRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut SmallRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
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
}

/// `any::<T>()` — the "any value of `T`" strategy.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// Generates any value of `T` from the uniform distribution.
    pub fn any<T: rand::Standard>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: rand::Standard> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut SmallRng) -> T {
            rng.gen()
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: a fixed `usize` or a
    /// half-open `usize` range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self { lo: r.start, hi: r.end }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec`s of values from `element`, with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property test needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Mirror of `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Declares property tests. Each `fn` item becomes a `#[test]` running
/// [`test_runner::run`] over its generated parameters. Parameters may be
/// `name: Type` (drawn via [`arbitrary::any`]) or `name in strategy`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::test_runner::run(stringify!($name), &config, |__proptest_rng| {
                $crate::__proptest_bind!(__proptest_rng $($params)*);
                $body
                Ok(())
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: binds one parameter list entry
/// per step, sampling from the given or inferred strategy.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident) => {};
    ($rng:ident ,) => {};
    ($rng:ident $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::strategy::Strategy::sample(&($strat), $rng);
        $crate::__proptest_bind!($rng $($rest)*);
    };
    ($rng:ident $name:ident in $strat:expr) => {
        let $name = $crate::strategy::Strategy::sample(&($strat), $rng);
    };
    ($rng:ident $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name: $ty =
            $crate::strategy::Strategy::sample(&$crate::arbitrary::any::<$ty>(), $rng);
        $crate::__proptest_bind!($rng $($rest)*);
    };
    ($rng:ident $name:ident : $ty:ty) => {
        let $name: $ty =
            $crate::strategy::Strategy::sample(&$crate::arbitrary::any::<$ty>(), $rng);
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Asserts a condition inside a property test; a failure fails the case
/// with a message instead of panicking mid-generation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts two expressions are equal (debug-formats both on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            left,
            right
        );
    }};
}

/// Asserts two expressions are unequal (debug-formats both on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{}` != `{}`\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            left
        );
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u32> {
        (0u32..1000).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn typed_params_bind(x: u64, flips: bool) {
            prop_assert!(u128::from(x) < (1u128 << 64));
            prop_assert!(usize::from(flips) <= 1);
        }

        #[test]
        fn strategies_compose(e in arb_even(), pick in prop_oneof![Just(1u8), Just(2), 3u8..5]) {
            prop_assert_eq!(e % 2, 0);
            prop_assert!((1..5).contains(&pick));
        }

        #[test]
        fn vec_sizes_respected(
            v in prop::collection::vec(0u64..10, 1..20),
            fixed in prop::collection::vec(any::<u64>(), 4),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert_eq!(fixed.len(), 4);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn assume_rejects_without_failing(a: u8, b: u8) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_index() {
        crate::test_runner::run("always_fails", &ProptestConfig::with_cases(4), |_rng| {
            Err(TestCaseError::fail("nope"))
        });
    }

    #[test]
    fn runner_is_deterministic() {
        let mut seen = Vec::new();
        for _ in 0..2 {
            let mut vals = Vec::new();
            crate::test_runner::run("det", &ProptestConfig::with_cases(8), |rng| {
                vals.push(crate::strategy::Strategy::sample(&(0u64..1_000_000), rng));
                Ok(())
            });
            seen.push(vals);
        }
        assert_eq!(seen[0], seen[1]);
    }
}
