//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach a cargo registry, so this
//! vendored crate implements the subset of the proptest 1.x API used by
//! the workspace's property tests: the [`proptest!`] macro, the
//! [`Strategy`] trait with `prop_map` / `prop_filter` /
//! `prop_filter_map` / `prop_recursive`, [`Just`], [`any`],
//! [`prop_oneof!`], and the `prop::{collection, option, bool, sample}`
//! modules.
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its (Debug-printed)
//!   inputs and the deterministic per-test seed reproduces it exactly;
//! * **deterministic by construction** — the RNG seed is a hash of the
//!   test function's name, so failures are stable across runs and
//!   machines (no `.proptest-regressions` files are consulted);
//! * the default case count is 64 (set `ProptestConfig::with_cases` for
//!   more).

use std::sync::Arc;

pub use rand;

/// Test-runner plumbing (RNG construction).
pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// The deterministic generator driving strategy sampling.
    #[derive(Debug, Clone)]
    pub struct TestRng(SmallRng);

    impl TestRng {
        /// A generator seeded from a stable hash of `name`, so every
        /// test function replays the same case sequence forever.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng(SmallRng::seed_from_u64(h))
        }

        /// The next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

use test_runner::TestRng;

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of values for property tests.
pub trait Strategy {
    /// The type of generated values.
    type Value: std::fmt::Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: std::fmt::Debug, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Discards values failing `pred` (resampling, bounded).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, reason, pred }
    }

    /// Combined filter + map: `f` returning `None` resamples.
    fn prop_filter_map<U: std::fmt::Debug, F>(
        self,
        reason: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap { inner: self, reason, f }
    }

    /// Builds recursive values: `recurse` receives a strategy for the
    /// previous depth level and returns the next level; leaves are
    /// mixed back in at every level so trees stay finite.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut strat = leaf.clone();
        for _ in 0..depth {
            let level = recurse(strat).boxed();
            let l = leaf.clone();
            strat = BoxedStrategy(Arc::new(move |rng: &mut TestRng| {
                if rng.next_u64() % 4 == 0 {
                    l.sample(rng)
                } else {
                    level.sample(rng)
                }
            }));
        }
        strat
    }

    /// Type-erases the strategy (needed by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Arc::new(move |rng: &mut TestRng| self.sample(rng)))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Arc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T> std::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<T: std::fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + std::fmt::Debug>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    U: std::fmt::Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

const FILTER_RETRIES: u32 = 10_000;

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..FILTER_RETRIES {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter exhausted retries: {}", self.reason);
    }
}

/// See [`Strategy::prop_filter_map`].
#[derive(Debug, Clone)]
pub struct FilterMap<S, F> {
    inner: S,
    reason: &'static str,
    f: F,
}

impl<S, F, U> Strategy for FilterMap<S, F>
where
    S: Strategy,
    U: std::fmt::Debug,
    F: Fn(S::Value) -> Option<U>,
{
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        for _ in 0..FILTER_RETRIES {
            if let Some(v) = (self.f)(self.inner.sample(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map exhausted retries: {}", self.reason);
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
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
impl_tuple_strategy!(A, B, C, D, E, G);

/// Types with a canonical full-range strategy (see [`any`]).
pub trait Arbitrary: Sized + std::fmt::Debug {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, roughly centred values; good enough for arithmetic
        // property tests.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 2e6 - 1e6
    }
}

/// Full-range strategy for `T` (the upstream `any::<T>()`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// See [`any`].
#[derive(Debug)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T> Clone for AnyStrategy<T> {
    fn clone(&self) -> Self {
        AnyStrategy(std::marker::PhantomData)
    }
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A uniform choice among type-erased alternatives (see
/// [`prop_oneof!`]).
#[derive(Debug, Clone)]
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T: std::fmt::Debug> Union<T> {
    /// A union over the given arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T: std::fmt::Debug> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[i].sample(rng)
    }
}

/// Strategy combinator modules (the upstream `proptest::prelude::prop`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};

        /// A `Vec` whose length is uniform in `len` and whose elements
        /// come from `element`.
        pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        /// See [`vec`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            len: std::ops::Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = rand::Rng::gen_range(rng, self.len.clone());
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    /// `Option` strategies.
    pub mod option {
        use super::super::{Strategy, TestRng};

        /// `Some` three times out of four, `None` otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// See [`of`].
        #[derive(Debug, Clone)]
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.next_u64() % 4 == 0 {
                    None
                } else {
                    Some(self.inner.sample(rng))
                }
            }
        }
    }

    /// `bool` strategies.
    pub mod bool {
        use super::super::{Strategy, TestRng};

        /// Fair coin strategy for `bool`.
        #[derive(Debug, Clone, Copy)]
        pub struct BoolAny;

        /// The upstream `prop::bool::ANY`.
        pub const ANY: BoolAny = BoolAny;

        impl Strategy for BoolAny {
            type Value = bool;
            fn sample(&self, rng: &mut TestRng) -> bool {
                rng.next_u64() & 1 == 1
            }
        }
    }

    /// Sampling from explicit collections.
    pub mod sample {
        use super::super::{Strategy, TestRng};

        /// A uniform choice from `values`.
        ///
        /// # Panics
        ///
        /// Panics if `values` is empty.
        pub fn select<T: Clone + std::fmt::Debug>(values: Vec<T>) -> Select<T> {
            assert!(!values.is_empty(), "select needs at least one value");
            Select { values }
        }

        /// See [`select`].
        #[derive(Debug, Clone)]
        pub struct Select<T> {
            values: Vec<T>,
        }

        impl<T: Clone + std::fmt::Debug> Strategy for Select<T> {
            type Value = T;
            fn sample(&self, rng: &mut TestRng) -> T {
                let i = (rng.next_u64() % self.values.len() as u64) as usize;
                self.values[i].clone()
            }
        }
    }
}

/// The catch-all import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use super::prop;
    pub use super::{any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// A uniform choice among strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Declares property-test functions: each `#[test] fn name(x in
/// strategy, ...) { body }` runs `body` for `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])+
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])+
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for __case in 0..__config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let __inputs = {
                    let mut s = String::new();
                    $(s.push_str(&format!(
                        "  {} = {:?}\n", stringify!($arg), &$arg
                    ));)+
                    s
                };
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || $body),
                );
                if let Err(e) = __outcome {
                    eprintln!(
                        "proptest: case {}/{} of `{}` failed with inputs:\n{}",
                        __case + 1, __config.cases, stringify!($name), __inputs
                    );
                    ::std::panic::resume_unwind(e);
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Debug, Clone)]
    enum Tree {
        Leaf(i64),
        Node(Box<Tree>, Box<Tree>),
    }

    impl Tree {
        fn depth(&self) -> u32 {
            match self {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + a.depth().max(b.depth()),
            }
        }
    }

    fn tree_strategy() -> impl Strategy<Value = Tree> {
        let leaf = (0i64..100).prop_map(Tree::Leaf);
        leaf.prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 0u64..10, y in -5i32..5) {
            prop_assert!(x < 10);
            prop_assert!((-5..5).contains(&y));
        }

        #[test]
        fn vec_lengths_respected(v in prop::collection::vec(0u8..4, 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&b| b < 4));
        }

        #[test]
        fn oneof_covers_arms(x in prop_oneof![Just(1u8), Just(2), Just(3)]) {
            prop_assert!((1..=3).contains(&x));
        }

        #[test]
        fn recursion_is_bounded(t in tree_strategy()) {
            prop_assert!(t.depth() <= 4);
        }

        #[test]
        fn filters_apply(x in (0u64..100).prop_filter("even", |v| v % 2 == 0)) {
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use super::test_runner::TestRng;
        use super::Strategy;
        let strat = super::prop::collection::vec(0u64..1000, 5..10);
        let a = strat.sample(&mut TestRng::deterministic("x"));
        let b = strat.sample(&mut TestRng::deterministic("x"));
        assert_eq!(a, b);
    }
}
