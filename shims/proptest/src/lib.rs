//! Offline stand-in for `proptest`.
//!
//! Provides randomized (non-shrinking) property tests with the same
//! syntax the workspace uses: the [`proptest!`] macro over `arg in
//! strategy` bindings, `any::<T>()`, numeric-range strategies,
//! `proptest::collection::vec`, tuple strategies, and the
//! `prop_assert*` macros. Each property runs a fixed number of cases
//! from a deterministic seed; failures report the case index but are
//! not shrunk.

use rand::prelude::*;

/// Error carried out of a failing property body.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// Result type property bodies evaluate to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Number of random cases per property.
pub const DEFAULT_CASES: usize = 96;

/// A value generator (no shrinking).
pub trait Strategy {
    /// Generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

/// Strategy for "any value of `T`" — see [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The `any::<T>()` strategy constructor.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

macro_rules! impl_any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_any_uint!(u8, u16, u32, u64, usize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<i64> {
    type Value = i64;
    fn sample(&self, rng: &mut StdRng) -> i64 {
        rng.next_u64() as i64
    }
}

impl<const N: usize> Strategy for Any<[u8; N]> {
    type Value = [u8; N];
    fn sample(&self, rng: &mut StdRng) -> [u8; N] {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = rng.next_u64() as u8;
        }
        out
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

pub mod collection {
    //! Collection strategies (`vec` only).
    use super::*;

    /// Strategy producing `Vec<S::Value>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max_exclusive: usize,
    }

    /// Length specification for [`vec()`].
    pub trait SizeRange {
        /// Returns `(min, max_exclusive)`.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end() + 1)
        }
    }

    impl SizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    /// `proptest::collection::vec(element, size)` equivalent.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (min, max_exclusive) = size.bounds();
        assert!(min < max_exclusive, "empty size range");
        VecStrategy {
            element,
            min,
            max_exclusive,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.min..self.max_exclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Runs one property over [`DEFAULT_CASES`] deterministic cases.
pub fn run_property<F: FnMut(&mut StdRng) -> TestCaseResult>(name: &str, mut body: F) {
    for case in 0..DEFAULT_CASES {
        // Deterministic per-test stream: hash the name with the case index.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed = (seed ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9E37));
        #[expect(
            clippy::panic,
            reason = "property failure must abort the run; mirrors upstream proptest"
        )]
        if let Err(TestCaseError(msg)) = body(&mut rng) {
            panic!("property '{name}' failed at case {case}: {msg}");
        }
    }
}

/// Declares property tests: `proptest! { #[test] fn name(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    ($(
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            $crate::run_property(stringify!($name), |prop_rng| {
                $(let $arg = $crate::Strategy::sample(&($strat), prop_rng);)+
                $body
                Ok(())
            });
        }
    )*};
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return Err($crate::TestCaseError(format!(
                "{} != {} ({lhs:?} vs {rhs:?})",
                stringify!($a),
                stringify!($b)
            )));
        }
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs == rhs {
            return Err($crate::TestCaseError(format!(
                "{} == {} ({lhs:?})",
                stringify!($a),
                stringify!($b)
            )));
        }
    }};
}

/// Prelude mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Strategy, TestCaseError, TestCaseResult};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respected(x in 10u32..20, y in 0.0f64..1.0) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respected(v in collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn tuples_compose(p in (0usize..3, 0usize..3)) {
            prop_assert!(p.0 < 3 && p.1 < 3);
        }
    }
}
