//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of proptest its test suites use: the [`proptest!`] macro with
//! an optional `#![proptest_config(...)]` header, `prop_assert!` /
//! `prop_assert_eq!`, [`prelude::any`], range / tuple / string-pattern
//! strategies, [`collection::vec`], [`option::of`], `prop_map`, and
//! [`prop_oneof!`].
//!
//! Differences from the real crate, acceptable for this repo's suites:
//! cases are generated from a fixed per-test seed (deterministic across
//! runs), failures panic immediately with the offending inputs instead of
//! shrinking, and `proptest-regressions` files are ignored.

pub mod test_runner {
    /// xorshift64* generator; the seed is derived from the test name so a
    /// failure reproduces on every run.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator keyed to a test name.
        pub fn for_test(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng { state: h | 1 }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        /// Uniform draw from `[lo, hi)`.
        pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
            debug_assert!(lo < hi);
            lo + self.next_u64() % (hi - lo)
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Fair coin.
        pub fn bool(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }
    }

    /// Per-suite configuration; only the case count is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Post-processes generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Clone)]
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
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy that always yields a clone of one value, as in the real
    /// crate's `Just`.
    #[derive(Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    // -- integer / float ranges (exclusive upper bound) --------------------

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.range_u64(0, span.max(1)) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range!(usize, u64, u32, i64, i32, u8);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    // -- `any::<T>()` ------------------------------------------------------

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value, biased toward edge cases.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Strategy returned by [`any`](super::prelude::any).
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(std::marker::PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub(crate) fn make_any<T>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // One draw in eight lands on an edge case.
                    if rng.next_u64() % 8 == 0 {
                        match rng.next_u64() % 5 {
                            0 => 0 as $t,
                            1 => 1 as $t,
                            2 => <$t>::MAX,
                            3 => <$t>::MIN,
                            _ => (42 as u8) as $t,
                        }
                    } else {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.bool()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            (rng.unit_f64() - 0.5) * 2e6
        }
    }

    // -- string patterns ---------------------------------------------------

    /// `&str` acts as a regex-subset strategy: `[class]{min,max}` with
    /// literal chars and `a-z` ranges inside the class.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (chars, min, max) = parse_pattern(self)
                .unwrap_or_else(|| panic!("unsupported string pattern '{self}'"));
            let len = rng.range_u64(min as u64, max as u64 + 1) as usize;
            (0..len)
                .map(|_| chars[rng.range_u64(0, chars.len() as u64) as usize])
                .collect()
        }
    }

    fn parse_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let (class, rest) = rest.split_once(']')?;
        let mut chars = Vec::new();
        let cs: Vec<char> = class.chars().collect();
        let mut i = 0;
        while i < cs.len() {
            if i + 2 < cs.len() && cs[i + 1] == '-' {
                let (lo, hi) = (cs[i] as u32, cs[i + 2] as u32);
                for c in lo..=hi {
                    chars.push(char::from_u32(c)?);
                }
                i += 3;
            } else {
                chars.push(cs[i]);
                i += 1;
            }
        }
        if chars.is_empty() {
            return None;
        }
        let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
        let (min, max) = match counts.split_once(',') {
            Some((a, b)) => (a.parse().ok()?, b.parse().ok()?),
            None => {
                let n = counts.parse().ok()?;
                (n, n)
            }
        };
        Some((chars, min, max))
    }

    // -- tuples ------------------------------------------------------------

    macro_rules! impl_tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A:0);
    impl_tuple_strategy!(A:0, B:1);
    impl_tuple_strategy!(A:0, B:1, C:2);
    impl_tuple_strategy!(A:0, B:1, C:2, D:3);
    impl_tuple_strategy!(A:0, B:1, C:2, D:3, E:4);
    impl_tuple_strategy!(A:0, B:1, C:2, D:3, E:4, F:5);

    // -- unions (prop_oneof!) ---------------------------------------------

    /// Object-safe view of a strategy, for heterogeneous unions.
    pub trait DynStrategy<V> {
        /// Draws one value.
        fn generate_dyn(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// Uniform choice between boxed strategies with a common value type.
    pub struct Union<V> {
        options: Vec<Box<dyn DynStrategy<V>>>,
    }

    impl<V> Union<V> {
        /// Builds a union; used by `prop_oneof!`.
        pub fn new(options: Vec<Box<dyn DynStrategy<V>>>) -> Union<V> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }

        /// Boxes one arm; used by `prop_oneof!`.
        pub fn boxed<S>(s: S) -> Box<dyn DynStrategy<V>>
        where
            S: Strategy<Value = V> + 'static,
        {
            Box::new(s)
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.range_u64(0, self.options.len() as u64) as usize;
            self.options[i].generate_dyn(rng)
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Sizes accepted by [`vec()`]: an exact `usize` or an exclusive range.
    pub trait IntoSizeRange {
        /// Lower/upper bounds as `(min, max_exclusive)`.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl IntoSizeRange for std::ops::Range<i32> {
        fn bounds(&self) -> (usize, usize) {
            (self.start as usize, self.end as usize)
        }
    }

    /// Strategy for vectors of values drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Clone> Clone for VecStrategy<S> {
        fn clone(&self) -> Self {
            VecStrategy {
                element: self.element.clone(),
                min: self.min,
                max: self.max,
            }
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.range_u64(self.min as u64, self.max.max(self.min + 1) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `size` values drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy for `Option<T>` values.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Mostly Some, as in the real crate's default weighting.
            if rng.range_u64(0, 4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `None` one time in four, otherwise `Some` of the inner strategy.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod prelude {
    pub use super::strategy::{Arbitrary, Just, Strategy};
    pub use super::test_runner::ProptestConfig;
    pub use super::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> super::strategy::Any<T> {
        super::strategy::make_any()
    }
}

/// Defines a block of property tests; see the crate docs for the supported
/// subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($p:pat in $s:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)));
            for _case in 0..config.cases {
                $(let $p = $crate::strategy::Strategy::generate(&($s), &mut rng);)*
                $body
            }
        }
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Uniform choice among several strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Union::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_test("ranges");
        for _ in 0..2000 {
            let u = (1usize..64).generate(&mut rng);
            assert!((1..64).contains(&u));
            let f = (0.25f64..2.0).generate(&mut rng);
            assert!((0.25..2.0).contains(&f));
            let i = (-5i64..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn string_pattern_generates_matching_text() {
        let mut rng = TestRng::for_test("pattern");
        for _ in 0..500 {
            let s = "[a-z]{0,8}".generate(&mut rng);
            assert!(s.len() <= 8);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let draw = || {
            let mut rng = TestRng::for_test("det");
            crate::collection::vec((any::<i64>(), 0.0f64..1.0), 1..20).generate(&mut rng)
        };
        assert_eq!(format!("{:?}", draw()), format!("{:?}", draw()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_compiles_and_runs(xs in crate::collection::vec(any::<u64>(), 0..10),
                                   choice in prop_oneof![0usize..3, 10usize..13],
                                   opt in crate::option::of(1u32..5)) {
            prop_assert!(xs.len() < 10);
            prop_assert!(choice < 3 || (10..13).contains(&choice));
            if let Some(v) = opt {
                prop_assert!((1..5).contains(&v));
            }
            prop_assert_eq!(xs.len(), xs.len());
        }
    }
}
