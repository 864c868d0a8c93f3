//! Bit-exact shortcuts for sequential floating-point sums.
//!
//! Energy accounting folds long chains of identical additions —
//! `for _ in 0..k { s += c }` — whenever a span of nodes shares one
//! wattage. [`repeat_add`] returns the bits of that loop without running
//! it.
//!
//! Why this works: while the running sum stays inside one binade (same
//! sign and exponent), every representable value is a multiple of the
//! binade's ulp `u`, so `s + c` rounds to `s + d·u` with the same `d` at
//! every step — except under a round-half-to-even tie (`c = q·u + u/2`),
//! where `d` depends on the parity of `s / u`. A tie from a multiple of
//! `u` always lands on an even multiple, so after one step taken wholly
//! inside the binade every later step is constant too. (A value that
//! *entered* the binade from the finer grid below may be an odd multiple
//! without any rounding, which is why one in-binade step is not enough.)
//! The kernel therefore takes plain steps until two consecutive steps
//! stayed inside one binade, then jumps as many further identical steps
//! as fit before the binade edge in one exact integer move. That is
//! O(binades crossed) work instead of O(k).

/// Mask of the 52 stored mantissa bits.
const MANT_MASK: u64 = (1 << 52) - 1;

/// True when `bits` is a finite, nonzero value strictly above its
/// binade's lower edge. A rounded sum that lands there was rounded on its
/// own binade's grid: one rounded on a finer (lower) or coarser (higher)
/// grid lands on or outside the binade's edges.
fn interior(bits: u64) -> bool {
    (bits >> 52) & 0x7ff != 0x7ff && bits & MANT_MASK != 0
}

/// The bits of `for _ in 0..k { s += c }`, computed in O(binades) steps.
///
/// Exact for every input: signed zeros, sign changes, subnormals, ties
/// and overflow to infinity all match the naive loop bit for bit. Cost is
/// a handful of plain additions per binade the running sum crosses (plus
/// one early exit once `s + c == s`); non-finite inputs fall back to plain
/// steps until they reach a fixed point.
#[must_use]
#[inline]
pub fn repeat_add(mut s: f64, c: f64, mut k: u64) -> f64 {
    // Whether the last step started and ended inside the binade `s` is in
    // now: then `s` came from a rounding on this binade's grid, and under
    // a tie it is an even multiple of the ulp.
    if k < 4 {
        // Too short for a bulk step to pay off.
        for _ in 0..k {
            s += c;
        }
        return s;
    }
    let mut warm = false;
    while k > 0 {
        let next = s + c;
        k -= 1;
        let (sb, nb) = (s.to_bits(), next.to_bits());
        if nb == sb {
            // A fixed point: every remaining step repeats this one.
            return s;
        }
        let inside = sb >> 52 == nb >> 52 && interior(nb);
        if warm && inside {
            // Two consecutive steps inside one binade: every further step
            // that stays strictly inside it moves the bit pattern by the
            // same `d` (sign-magnitude bits grow with magnitude, so this
            // holds for negative sums too).
            let d = nb.wrapping_sub(sb) as i64;
            let mant = (nb & MANT_MASK) as i64;
            let room = if d > 0 {
                (MANT_MASK as i64 - mant) / d
            } else {
                (mant - 1) / -d
            };
            let n = (room as u64).min(k);
            s = f64::from_bits((nb as i64 + n as i64 * d) as u64);
            k -= n;
        } else {
            s = next;
        }
        warm = inside;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop [`repeat_add`] stands in for.
    pub(super) fn naive(mut s: f64, c: f64, k: u64) -> f64 {
        for _ in 0..k {
            s += c;
        }
        s
    }

    fn check(s: f64, c: f64, k: u64) {
        assert_eq!(
            repeat_add(s, c, k).to_bits(),
            naive(s, c, k).to_bits(),
            "repeat_add({s:e}, {c:e}, {k}) diverged from the naive loop"
        );
    }

    #[test]
    fn tie_entering_a_binade_from_below_matches_naive() {
        // 1.0 - 0.1·k descends through [0.25, 0.5), where -0.1 is a tie
        // (q + 1/2 ulps) and the sum enters as an odd multiple.
        check(1.0, -0.1, 17);
        check(1.0, -0.1, 40);
    }

    #[test]
    fn small_cases_match_naive() {
        for &s in &[0.0, -0.0, 1.0, -1.0, 1e-300, 123.456, -7.5e6, 5e-324] {
            for &c in &[0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 300.25, 1e-17, 5e-324] {
                for k in [0, 1, 2, 3, 4, 17, 1000, 65_536] {
                    check(s, c, k);
                }
            }
        }
    }

    #[test]
    fn negative_zero_seed_is_the_identity() {
        // `Iterator::sum` seeds its fold with -0.0; one step must return
        // the addend itself, signed zero included.
        assert_eq!(repeat_add(-0.0, 0.0, 1).to_bits(), 0.0f64.to_bits());
        assert_eq!(repeat_add(-0.0, -0.0, 1).to_bits(), (-0.0f64).to_bits());
        assert_eq!(repeat_add(-0.0, -0.0, 9).to_bits(), (-0.0f64).to_bits());
        check(-0.0, 250.0, 70_000);
    }

    #[test]
    fn ties_at_every_parity_match_naive() {
        // c = q·u + u/2 relative to the binade [2^10, 2^11), u = 2^-42.
        let u = 2f64.powi(-42);
        for q in 0..6u32 {
            let c = f64::from(q) * u + u / 2.0;
            for start in [1024.0, 1024.0 + u, 1024.0 + 2.0 * u, 1024.0 + 3.0 * u] {
                check(start, c, 50_000);
                check(-start, -c, 50_000);
                check(-start, c, 50_000);
            }
        }
    }

    #[test]
    fn overflow_and_non_finite_inputs_match_naive() {
        check(f64::MAX, f64::MAX / 3.0, 10);
        check(f64::MAX / 2.0, 1e300, 1_000);
        check(1.0, f64::INFINITY, 5);
        check(f64::INFINITY, -1.0, 5);
        assert!(repeat_add(f64::NAN, 1.0, 100).is_nan());
        assert!(repeat_add(1.0, f64::NAN, 100).is_nan());
    }

    #[test]
    fn long_chains_are_fast_and_exact() {
        // 2^32 steps would take seconds naively; the kernel does it in
        // O(binades). Compare against the closed form where it is exact.
        let s = repeat_add(0.0, 1.0, 1 << 32);
        assert_eq!(s, 4_294_967_296.0);
        let s = repeat_add(0.0, 0.5, 1 << 40);
        assert_eq!(s, 549_755_813_888.0);
        // Beyond 2^53 adding 1.0 is a fixed point.
        let big = 2f64.powi(53);
        assert_eq!(repeat_add(big, 1.0, u64::MAX).to_bits(), big.to_bits());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::naive;
    use super::*;
    use proptest::prelude::*;

    /// A value with a random exponent in `[-60, 60]`, random mantissa and
    /// random sign — spreads cases across many binades.
    fn scaled(mant: f64, exp: i32, neg: bool) -> f64 {
        let v = (1.0 + mant) * 2f64.powi(exp);
        if neg {
            -v
        } else {
            v
        }
    }

    proptest! {
        /// Random seeds and addends across binades, both signs, k up to
        /// 70,000: bit-identical to the naive loop.
        #[test]
        fn matches_naive_loop(
            sm in 0.0f64..1.0, se in -60i32..60, sn in any::<bool>(),
            cm in 0.0f64..1.0, ce in -60i32..60, cn in any::<bool>(),
            k in 0u64..70_000,
        ) {
            let (s, c) = (scaled(sm, se, sn), scaled(cm, ce, cn));
            prop_assert_eq!(repeat_add(s, c, k).to_bits(), naive(s, c, k).to_bits(),
                "s={:e} c={:e} k={}", s, c, k);
        }

        /// Constructed round-half-to-even ties: c = q·u + u/2 where u is
        /// the ulp of the seed's binade or of a binade the sum reaches
        /// later (entering a binade from the finer grid below can leave
        /// an odd multiple of its ulp), from seeds of both parities.
        #[test]
        fn constructed_ties_match_naive_loop(
            se in -30i32..30,
            shift in -8i32..4,
            smant in 0u64..(1 << 52),
            q in 0u64..64,
            neg_s in any::<bool>(),
            neg_c in any::<bool>(),
            k in 0u64..70_000,
        ) {
            let s = f64::from_bits(((1023 + se) as u64) << 52 | smant);
            let u = 2f64.powi(se + shift - 52);
            let c = q as f64 * u + u / 2.0;
            let s = if neg_s { -s } else { s };
            let c = if neg_c { -c } else { c };
            prop_assert_eq!(repeat_add(s, c, k).to_bits(), naive(s, c, k).to_bits(),
                "s={:e} c={:e} k={}", s, c, k);
        }

        /// Signed-zero seeds, and sums that cross zero (sign changes) and
        /// then many binades upward.
        #[test]
        fn zero_seeds_and_sign_changes_match_naive_loop(
            zero_neg in any::<bool>(),
            start in -5_000.0f64..5_000.0,
            cm in 0.0f64..1.0, ce in -8i32..8, cn in any::<bool>(),
            k in 0u64..70_000,
        ) {
            let c = scaled(cm, ce, cn);
            let z = if zero_neg { -0.0 } else { 0.0 };
            prop_assert_eq!(repeat_add(z, c, k).to_bits(), naive(z, c, k).to_bits());
            prop_assert_eq!(repeat_add(start, c, k).to_bits(), naive(start, c, k).to_bits(),
                "s={:e} c={:e} k={}", start, c, k);
        }
    }
}
