//! Deterministic, stream-splittable random numbers.
//!
//! Reproducibility is a hard requirement for the survey reproduction: the
//! same site model and seed must produce byte-identical reports. We use
//! ChaCha8 (from `rand_chacha`), whose output is specified and
//! version-stable, unlike `StdRng` whose algorithm may change between
//! `rand` releases.
//!
//! [`SimRng::stream`] derives independent named substreams so that, e.g.,
//! the workload generator and the facility weather model draw from
//! unrelated sequences — adding a draw to one cannot perturb the other.
//! This is the standard trick for variance-controlled simulation
//! experiments (common random numbers across policy variants).

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic RNG with named-substream derivation.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
    seed: u64,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this RNG (or its root ancestor stream) was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent substream identified by a label.
    ///
    /// The derivation is pure: it depends only on the root seed and the
    /// label, not on how many draws have been made from `self`.
    #[must_use]
    pub fn stream(&self, label: &str) -> SimRng {
        let sub = splitmix64(self.seed ^ fnv1a(label.as_bytes()));
        SimRng::new(sub)
    }

    /// Derives an independent substream identified by an index (e.g. a
    /// replication number or node id).
    #[must_use]
    pub fn stream_indexed(&self, label: &str, index: u64) -> SimRng {
        let sub = splitmix64(self.seed ^ fnv1a(label.as_bytes()) ^ splitmix64(index));
        SimRng::new(sub)
    }

    /// The generator's complete observable state: `(seed, word_pos)`.
    ///
    /// ChaCha is a counter-mode cipher, so the absolute stream position
    /// (in 32-bit words) plus the seed fully determine every future
    /// draw; substream derivation is a pure function of the seed alone.
    /// Feed the pair to [`SimRng::from_state`] to resume the stream.
    #[must_use]
    pub fn snapshot_state(&self) -> (u64, u64) {
        (self.seed, self.inner.get_word_pos())
    }

    /// Rebuilds an RNG from a [`SimRng::snapshot_state`] pair. The next
    /// draw is exactly what the snapshotted generator would have drawn.
    #[must_use]
    pub fn from_state(seed: u64, word_pos: u64) -> Self {
        let mut rng = SimRng::new(seed);
        if word_pos > 0 {
            rng.inner.set_word_pos(word_pos);
        }
        rng
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi >= lo, "uniform_range requires hi >= lo");
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi)` (half-open). Panics if `lo >= hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "uniform_usize requires lo < hi");
        self.inner.random_range(lo..hi)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Exponential draw with the given rate (mean `1/rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        // Inverse-CDF; uniform() < 1 so ln argument is > 0.
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Standard normal draw (Box–Muller; one value per call for simplicity).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal draw parameterized by the *underlying* normal's mu/sigma.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.uniform_usize(0, items.len())]
    }

    /// Weighted choice: returns the index drawn with probability
    /// proportional to `weights[i]`. Panics if all weights are zero.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0,
            "choose_weighted requires positive total weight"
        );
        let mut x = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn streams_are_independent_of_draw_count() {
        let root = SimRng::new(7);
        let s1 = root.stream("workload");
        let mut consumed = SimRng::new(7);
        let _ = consumed.next_u64();
        let s2 = consumed.stream("workload");
        let mut a = s1.clone();
        let mut b = s2.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn distinct_labels_give_distinct_streams() {
        let root = SimRng::new(7);
        let mut a = root.stream("weather");
        let mut b = root.stream("workload");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn indexed_streams_distinct() {
        let root = SimRng::new(7);
        let mut a = root.stream_indexed("node", 0);
        let mut b = root.stream_indexed("node", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn snapshot_state_resumes_exact_stream() {
        for draws in [0usize, 1, 7, 16, 33, 500] {
            let mut a = SimRng::new(0xfeed);
            for _ in 0..draws {
                let _ = a.uniform();
            }
            let (seed, pos) = a.snapshot_state();
            let mut b = SimRng::from_state(seed, pos);
            assert_eq!(b.snapshot_state(), (seed, pos), "restore is stable");
            for _ in 0..100 {
                assert_eq!(a.next_u64(), b.next_u64(), "diverged after {draws} draws");
            }
            // Substream derivation is seed-pure, unaffected by position.
            let (mut sa, mut sb) = (a.stream("x"), b.stream("x"));
            assert_eq!(sa.next_u64(), sb.next_u64());
        }
    }

    #[test]
    fn exponential_mean_is_reciprocal_rate() {
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / f64::from(n);
        assert!((mean - 2.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(4);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = SimRng::new(5);
        let w = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.choose_weighted(&w)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::new(8);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// uniform_range stays within bounds for arbitrary finite ranges.
        #[test]
        fn uniform_range_in_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, width in 0.001f64..1e6) {
            let mut rng = SimRng::new(seed);
            let hi = lo + width;
            for _ in 0..32 {
                let x = rng.uniform_range(lo, hi);
                prop_assert!(x >= lo && x < hi);
            }
        }

        /// Stream derivation is pure: same (seed, label) always yields the
        /// same substream regardless of interleaved draws.
        #[test]
        fn stream_derivation_pure(seed in any::<u64>(), label in "[a-z]{1,12}") {
            let r1 = SimRng::new(seed);
            let mut r2 = SimRng::new(seed);
            for _ in 0..5 { let _ = r2.next_u32(); }
            let mut s1 = r1.stream(&label);
            let mut s2 = r2.stream(&label);
            prop_assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }
}
