//! # `sl-rng` — the workspace's one random generator
//!
//! A std-only generator with the call shape of `rand` 0.9 that the
//! workspace uses: `rngs::StdRng`, `SeedableRng::seed_from_u64`,
//! `RngCore` and `Rng::{random, random_range}`. Every random effect —
//! weight init, batch sampling, fading draws, scene synthesis — comes
//! from this one stream, so results depend on the seed alone and never
//! on how the workspace was built. [`cases`] is the seeded-case runner
//! behind the crates' property tests.
//!
//! The stream:
//! * `seed_from_u64(s)` fills the four xoshiro256** state words with four
//!   successive SplitMix64 outputs starting from `s`;
//! * `next_u64` is one xoshiro256** step; `next_u32` is the upper half of
//!   one step, so every call advances the state by exactly one step;
//! * `f64` is `(next_u64 >> 11) · 2⁻⁵³` and `f32` is `(next_u32 >> 8) · 2⁻²⁴`,
//!   both in `[0, 1)`; `bool` is the top bit of `next_u32`;
//! * an integer range of span `n` is Lemire's widening multiply of one
//!   `next_u64` by `n`, redrawn while the low word is below `2⁶⁴ mod n`;
//! * a float range is `low + (high − low)·u` with `u` as above (redrawn in
//!   the rare case that rounding reaches `high`); an inclusive float range
//!   divides by `2⁵³ − 1` (`2²⁴ − 1` for `f32`) so `high` is reachable.
//!
//! [`rngs::StdRng::state`] and [`rngs::StdRng::from_state`] expose the
//! four state words, so a checkpoint can store the generator itself.
//!
//! [`fnv1a_64`] is the workspace's one stable hash. It lives here
//! because this crate depends on nothing, so every crate can reach it:
//! `sl-net` frame checksums, `sl-store` chunk checksums, `sl-telemetry`
//! trace ids, `sl-bench` config fingerprints and the [`cases`] seeds.

mod cases;

pub use cases::cases;

use std::ops::{Range, RangeInclusive};

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The raw generator interface.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dst` with little-endian `next_u64` words.
    fn fill_bytes(&mut self, dst: &mut [u8]);
}

/// Generators built from a seed.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Values drawn by [`Rng::random`].
pub trait Standard: Sized {
    /// One value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types drawn by [`Rng::random_range`].
pub trait SampleUniform: Sized {
    /// One value in `[low, high)`, or `[low, high]` when `inclusive`.
    fn sample_range<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

/// Ranges accepted by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// One value of the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_range(rng, low, high, true)
    }
}

/// The convenience methods every generator gets.
pub trait Rng: RngCore {
    /// A value of `T` (see the module docs for the mapping).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniformly drawn from `range`.
    fn random_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn unit_f32<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f32(rng)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() >> 31 == 1
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// Uniform in `[0, n)` for `n > 0` (Lemire's method with rejection).
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    let threshold = n.wrapping_neg() % n;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(n);
        if m as u64 >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t, inclusive: bool) -> $t {
                assert!(low < high || (inclusive && low == high), "random_range: empty range");
                let span = (high.wrapping_sub(low) as $u as u64).wrapping_add(u64::from(inclusive));
                if span == 0 {
                    // The inclusive range covers all 2⁶⁴ values.
                    return low.wrapping_add(rng.next_u64() as $t);
                }
                low.wrapping_add(below(rng, span) as $t)
            }
        }
    )*};
}

uniform_int!(u8 => u8, u32 => u32, u64 => u64, usize => usize, i32 => u32, i64 => u64);

macro_rules! uniform_float {
    ($($t:ty => $unit:ident, $bits:expr),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t, inclusive: bool) -> $t {
                assert!(
                    low.is_finite() && high.is_finite() && (low < high || (inclusive && low == high)),
                    "random_range: empty or non-finite range"
                );
                if inclusive {
                    let top = ((1u64 << $bits) - 1) as $t;
                    let u = ($unit(rng) * (1u64 << $bits) as $t) / top;
                    return low + (high - low) * u;
                }
                loop {
                    let v = low + (high - low) * $unit(rng);
                    if v < high {
                        return v;
                    }
                }
            }
        }
    )*};
}

uniform_float!(f64 => unit_f64, 53, f32 => unit_f32, 24);

/// Generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** seeded through SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        /// The generator `SeedableRng::seed_from_u64(seed)` builds, callable
        /// without the trait in scope.
        pub fn seed_from_u64(mut seed: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            StdRng { s }
        }

        /// The four state words: [`StdRng::from_state`] of them continues
        /// this generator's stream exactly.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// The generator whose state is `s`. The all-zero state is
        /// xoshiro's fixed point (it draws zeros forever);
        /// `seed_from_u64` never produces it.
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng::seed_from_u64(seed)
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }

        fn fill_bytes(&mut self, dst: &mut [u8]) {
            for chunk in dst.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }
}
