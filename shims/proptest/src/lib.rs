//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so this
//! crate reimplements the slice of the `proptest` 1.x API the workspace
//! uses: the [`proptest!`] macro with `#![proptest_config(...)]`,
//! [`prop_assert!`]/[`prop_assert_eq!`], [`any`], range/tuple strategies,
//! `prop::collection::vec`, `prop::sample::select`, and the `prop_map` /
//! `prop_flat_map` combinators.
//!
//! Semantics differ from real proptest in two deliberate ways: inputs are
//! drawn from a seeded PRNG derived from the test's module path (so runs
//! are fully deterministic without a regressions file), and failing cases
//! are reported but **not shrunk**. Each failure message includes the
//! case number so a failure is reproducible by rerunning the same test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod string;
pub mod test_runner;

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification for [`vec()`]: an exact size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }
    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }
    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.below(self.size.hi - self.size.lo) + self.size.lo;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies (`prop::sample::select`).
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy drawing one element of a fixed list.
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Picks one of `options` uniformly.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len())].clone()
        }
    }
}

/// Types with a canonical whole-domain strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut test_runner::TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut test_runner::TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}
macro_rules! impl_arbitrary_int {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut test_runner::TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy over the whole domain of `T` (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

/// The canonical strategy for `T`: every value equally likely.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any { _marker: core::marker::PhantomData }
}

impl<T: Arbitrary> strategy::Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut test_runner::TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The glob-import module: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a [`proptest!`] body, failing the current
/// case (with its case number) rather than panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { ... }`
/// becomes a `#[test]` that runs the body for `config.cases` inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut runner_rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut runner_rng);)+
                    let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(e) = outcome {
                        panic!(
                            "property `{}` failed at case {}/{}: {}",
                            stringify!($name),
                            case,
                            config.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, y in 0usize..5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn maps_apply(v in prop::collection::vec(any::<bool>(), 0..8)) {
            prop_assert!(v.len() < 8);
        }

        #[test]
        fn tuples_and_select(pair in (0u32..4, 1u32..3), s in prop::sample::select(vec!["a", "b"])) {
            prop_assert!(pair.0 < 4 && (1..3).contains(&pair.1));
            prop_assert!(s == "a" || s == "b");
        }

        #[test]
        fn flat_map_chains(len in 1usize..5) {
            prop_assert!(len >= 1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        let s = prop::collection::vec(any::<u64>(), 4..9);
        let a: Vec<u64> = s.generate(&mut crate::test_runner::TestRng::for_case("t", 3));
        let b: Vec<u64> = s.generate(&mut crate::test_runner::TestRng::for_case("t", 3));
        let c: Vec<u64> = s.generate(&mut crate::test_runner::TestRng::for_case("t", 4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prop_map_and_flat_map_compose() {
        use crate::strategy::Strategy;
        let s = (2usize..5).prop_flat_map(|n| {
            crate::collection::vec(any::<bool>(), n).prop_map(move |v| (n, v.len()))
        });
        let (n, len) = s.generate(&mut crate::test_runner::TestRng::for_case("m", 0));
        assert_eq!(n, len);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_names_the_case() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(unused)]
            fn always_fails(x in 0u32..4) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
