//! Offline stand-in for the part of `rand` 0.8.5 that the seagull crates
//! use. The benchmark must build with no registry access, so this crate is
//! patched in for `rand`; it follows rand 0.8.5's published algorithms
//! (PCG32 seed expansion, widening-multiply integer ranges, `[1, 2)`
//! mantissa floats, Fisher-Yates shuffle over `gen_index`) so that a seed
//! names the same fleet here as under the real crate.

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The seed: a byte array.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32, as rand_core 0.6 does.
    fn seed_from_u64(mut state: u64) -> Self {
        fn pcg32(state: &mut u64) -> [u8; 4] {
            const MUL: u64 = 6364136223846793005;
            const INC: u64 = 11634580027462260723;
            *state = state.wrapping_mul(MUL).wrapping_add(INC);
            let state = *state;
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            xorshifted.rotate_right(rot).to_le_bytes()
        }
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            let bytes = pcg32(&mut state);
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce (rand's `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Standard for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($ty:ty, $unsigned:ty, $large:ty, $wide:ty) => {
        impl SampleUniform for $ty {
            fn sample_half_open<R: RngCore + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                assert!(low < high, "gen_range: low >= high");
                Self::sample_inclusive(low, high - 1, rng)
            }

            fn sample_inclusive<R: RngCore + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                assert!(low <= high, "gen_range: low > high");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                if range == 0 {
                    return <$large as Standard>::draw(rng) as $ty;
                }
                let zone = if <$unsigned>::MAX as u64 <= u16::MAX as u64 {
                    let ints_to_reject = (<$large>::MAX - range + 1) % range;
                    <$large>::MAX - ints_to_reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v = <$large as Standard>::draw(rng);
                    let wide = v as $wide * range as $wide;
                    let hi = (wide >> <$large>::BITS) as $large;
                    let lo = wide as $large;
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}

uniform_int!(i8, u8, u32, u64);
uniform_int!(i16, u16, u32, u64);
uniform_int!(i32, u32, u32, u64);
uniform_int!(i64, u64, u64, u128);
uniform_int!(isize, usize, usize, u128);
uniform_int!(u8, u8, u32, u64);
uniform_int!(u16, u16, u32, u64);
uniform_int!(u32, u32, u32, u64);
uniform_int!(u64, u64, u64, u128);
uniform_int!(usize, usize, usize, u128);

/// A float in `[1, 2)` from the top 52 bits of `bits`, minus one.
fn unit_f64(bits: u64) -> f64 {
    f64::from_bits((bits >> 12) | (1023u64 << 52)) - 1.0
}

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
        assert!(low < high, "gen_range: low >= high");
        let mut scale = high - low;
        assert!(scale.is_finite(), "gen_range: range overflow");
        loop {
            let res = unit_f64(rng.next_u64()) * scale + low;
            if res < high {
                return res;
            }
            // Rounding reached `high`: shave one ulp off the scale.
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }

    fn sample_inclusive<R: RngCore + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
        assert!(low <= high, "gen_range: low > high");
        assert!(
            low.is_finite() && high.is_finite(),
            "gen_range: non-finite bound"
        );
        let max_rand = unit_f64(u64::MAX);
        let mut scale = (high - low) / max_rand;
        while scale * max_rand + low > high {
            scale = f64::from_bits(scale.to_bits() - 1);
        }
        unit_f64(rng.next_u64()) * scale + low
    }
}

/// Range types accepted by `Rng::gen_range`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(low, high, rng)
    }
}

/// User-facing generator methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value uniform in `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Slice helpers.
pub mod seq {
    use super::Rng;

    fn gen_index<R: Rng + ?Sized>(rng: &mut R, ubound: usize) -> usize {
        if ubound <= u32::MAX as usize {
            rng.gen_range(0..ubound as u32) as usize
        } else {
            rng.gen_range(0..ubound)
        }
    }

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Fisher-Yates shuffle, from the back.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, gen_index(rng, i + 1));
            }
        }
    }
}
