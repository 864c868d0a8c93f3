//! Small statistics helpers: nearest-rank percentiles, medians, and the
//! self-time subtraction that turns the engine's nested profiler scopes
//! into exclusive layer times.

/// A tail percentile is only reported when at least this many samples
/// lie beyond it, so one outlier cannot set it.
pub const MIN_BEYOND: usize = 10;

/// Candidate percentiles in basis points (1/100 of a percent), highest
/// first. Integer arithmetic keeps the rank exact: `0.99 * 1000` in
/// floating point is not 990.
const CANDIDATES_BP: [u64; 6] = [9_999, 9_990, 9_900, 9_500, 9_000, 5_000];

/// 1-based nearest rank of the `bp` percentile among `n` samples.
fn rank(n: usize, bp: u64) -> usize {
    let n64 = n as u64;
    (bp * n64).div_ceil(10_000).clamp(1, n64.max(1)) as usize
}

/// Number of samples strictly beyond the nearest-rank `bp` percentile.
#[must_use]
pub fn samples_beyond(n: usize, bp: u64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, bp)
    }
}

/// Nearest-rank percentile of ascending `sorted` at `bp` basis points.
#[must_use]
pub fn percentile_bp(sorted: &[f64], bp: u64) -> Option<f64> {
    if sorted.is_empty() {
        None
    } else {
        Some(sorted[rank(sorted.len(), bp) - 1])
    }
}

/// The highest candidate percentile (in basis points) with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` with too few samples.
#[must_use]
pub fn highest_supported_bp(n: usize) -> Option<u64> {
    CANDIDATES_BP
        .iter()
        .copied()
        .find(|&bp| samples_beyond(n, bp) >= MIN_BEYOND)
}

/// Median (mean of the two middle values for an even count).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// A parent scope's exclusive time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTime {
    /// Parent time minus its children, clamped at 0.
    pub secs: f64,
    /// The children together exceed the parent: the scopes do not nest
    /// the way the subtraction assumes, and `secs` was clamped.
    pub children_exceed_parent: bool,
}

/// Subtracts `children` from `parent`. Children that add up to more
/// than the parent clamp the result at 0 and raise the flag instead of
/// reporting a negative time.
#[must_use]
pub fn self_time(parent: f64, children: &[f64]) -> SelfTime {
    let rest = parent - children.iter().sum::<f64>();
    SelfTime {
        secs: rest.max(0.0),
        children_exceed_parent: rest < 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 9_900), 10);
        assert_eq!(samples_beyond(999, 9_900), 9);
        assert_eq!(highest_supported_bp(1000), Some(9_900));
        assert_eq!(highest_supported_bp(999), Some(9_500));
        assert_eq!(highest_supported_bp(10_000), Some(9_990));
        assert_eq!(highest_supported_bp(100_000), Some(9_999));
        assert_eq!(highest_supported_bp(20), Some(5_000));
        assert_eq!(highest_supported_bp(19), None);
        assert_eq!(highest_supported_bp(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_bp(&v, 9_900), Some(990.0));
        assert_eq!(percentile_bp(&v, 5_000), Some(500.0));
        assert_eq!(percentile_bp(&[7.0], 9_900), Some(7.0));
        assert_eq!(percentile_bp(&[], 5_000), None);
        // Exactly ten samples lie beyond the reported p99.
        let p99 = percentile_bp(&v, 9_900).expect("non-empty");
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), MIN_BEYOND);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_and_clamps() {
        let s = self_time(10.0, &[3.0, 2.0]);
        assert!((s.secs - 5.0).abs() < 1e-12);
        assert!(!s.children_exceed_parent);

        let exact = self_time(5.0, &[2.0, 3.0]);
        assert_eq!(exact.secs, 0.0);
        assert!(!exact.children_exceed_parent);

        let over = self_time(4.0, &[3.0, 2.0]);
        assert_eq!(over.secs, 0.0);
        assert!(over.children_exceed_parent);

        assert_eq!(self_time(1.5, &[]).secs, 1.5);
    }
}
