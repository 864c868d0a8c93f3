//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal, API-compatible subset of `rand` 0.9: the
//! [`RngCore`]/[`SeedableRng`]/[`Rng`] traits and the uniform sampling
//! used by `epa-simcore`'s `SimRng`. Only what the workspace calls is
//! implemented; the trait shapes match `rand` so swapping the real crate
//! back in is a one-line Cargo change.

use std::ops::Range;

/// Core random-number generation: raw 32/64-bit output.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// A generator seedable from a fixed-size seed or a `u64`.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: AsMut<[u8]> + Default;

    /// Constructs the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a 64-bit seed into a full seed via SplitMix64 (the same
    /// construction `rand` uses).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64(&mut sm).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The standard uniform distribution over a type's natural range
/// (`[0, 1)` for floats).
pub struct StandardUniform;

/// A distribution that can sample values of `T`.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

impl Distribution<f64> for StandardUniform {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // 53 random mantissa bits, uniform on [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for StandardUniform {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Distribution<u32> for StandardUniform {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Distribution<u64> for StandardUniform {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Distribution<bool> for StandardUniform {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u32() & 1 == 1
    }
}

/// A range that uniform values can be drawn from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                // Rejection sampling over the top 64-bit range keeps the
                // draw exactly uniform.
                let zone = u64::MAX - (u64::MAX % span);
                loop {
                    let v = rng.next_u64();
                    if v < zone {
                        return self.start + (v % span) as $t;
                    }
                }
            }
        }
    )*};
}

impl_sample_range_uint!(usize, u64, u32, u16, u8);

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard uniform distribution.
    fn random<T>(&mut self) -> T
    where
        StandardUniform: Distribution<T>,
    {
        StandardUniform.sample(self)
    }

    /// Draws a value uniformly from a range.
    fn random_range<T, Ra: SampleRange<T>>(&mut self, range: Ra) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.0
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Counter(7);
        for _ in 0..1000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respected() {
        let mut rng = Counter(3);
        for _ in 0..1000 {
            let v = rng.random_range(10usize..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = Counter(1);
        let mut buf = [0u8; 11];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
