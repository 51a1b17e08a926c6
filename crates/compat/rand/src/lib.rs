//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to a cargo registry, so
//! this vendored crate provides the (small) subset of the `rand` 0.8
//! API the workspace actually uses: [`SmallRng`](rngs::SmallRng) seeded
//! via [`SeedableRng::seed_from_u64`], [`Rng::gen_range`] over integer
//! and float ranges, and [`seq::SliceRandom::shuffle`].
//!
//! The generator is xoshiro256++ over a splitmix64-expanded seed — a
//! different stream than upstream `rand`, but every consumer in this
//! workspace only requires determinism (fixed seed → fixed sequence),
//! which this crate guarantees: the algorithm is pinned and will never
//! change observable output for a given seed.

/// A random number generator that can be seeded from a `u64`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types into which a uniform sample can be drawn from a range.
pub trait SampleUniform: Sized + Copy {}

/// A range that can be sampled uniformly, producing `T`.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample(self, rng: &mut (impl RngCore + ?Sized)) -> T;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// The next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (`start..end` or `start..=end`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// A uniformly random `bool`.
    fn gen_bool(&mut self, p: f64) -> bool {
        sample_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn sample_f64(rng: &mut (impl RngCore + ?Sized)) -> f64 {
    // 53 uniform mantissa bits in [0, 1).
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Rejection-free-enough bounded sampling: widening multiply keeps the
/// modulo bias far below anything a simulator kernel can observe, and
/// stays deterministic.
fn bounded(rng: &mut (impl RngCore + ?Sized), bound: u64) -> u64 {
    debug_assert!(bound > 0);
    ((u128::from(rng.next_u64()) * u128::from(bound)) >> 64) as u64
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {}

        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut (impl RngCore + ?Sized)) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded(rng, span) as i128) as $t
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut (impl RngCore + ?Sized)) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as i128 + bounded(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample(self, rng: &mut (impl RngCore + ?Sized)) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + sample_f64(rng) * (self.end - self.start)
    }
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic generator (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 expansion, as rand does for small seeds.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            SmallRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling and choosing over slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle(&mut self, rng: &mut impl RngCore);

        /// A uniformly chosen element, or `None` when empty.
        fn choose<'a>(&'a self, rng: &mut impl RngCore) -> Option<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle(&mut self, rng: &mut impl RngCore) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<'a>(&'a self, rng: &mut impl RngCore) -> Option<&'a T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn fixed_seed_fixed_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = r.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
            let c = r.gen_range(b'a'..=b'z');
            assert!(c.is_ascii_lowercase());
            let i = r.gen_range(-5i32..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SmallRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn full_u64_inclusive_range_works() {
        let mut r = SmallRng::seed_from_u64(3);
        let _: u64 = r.gen_range(0u64..=u64::MAX);
    }
}
