//! Order statistics for latency samples and per-run figures.
//!
//! Percentiles use the nearest-rank rule: percentile `p` of `n` sorted
//! samples is the sample of rank `ceil(p/100 · n)`. A tail percentile
//! is only worth reporting when enough samples lie beyond it, so
//! [`tail`] picks the highest of [`TAIL_CANDIDATES`] that leaves at
//! least [`MIN_BEYOND`] samples above its rank.

/// Tail percentiles considered, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, computed
/// in integer tenths of a percent so `p99.9 · 10,000` is exactly 9,990.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Percentile `p` (0–100) of ascending `sorted` samples by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond percentile `p`'s rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of unsorted values (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The highest supported tail percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (one of [`TAIL_CANDIDATES`]).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| beyond(n, p) >= MIN_BEYOND)
        .map(|&pct| Tail {
            pct,
            value: percentile(sorted, pct),
            samples: n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 10,000 samples: p99.9 has exactly 10 beyond it.
        let t = tail(&ramp(10_000)).expect("supported");
        assert_eq!((t.pct, t.value, t.samples), (99.9, 9_990.0, 10_000));
        // 9,999 samples: p99.9's rank is 9,990 → only 9 beyond; p99 wins.
        let t = tail(&ramp(9_999)).expect("supported");
        assert_eq!(t.pct, 99.0);
        assert_eq!(beyond(9_999, 99.9), 9);
        // 1,000 samples: p99 has exactly 10 beyond.
        assert_eq!(tail(&ramp(1_000)).expect("supported").pct, 99.0);
        // 999 samples: p99 rank 990 leaves 9 → falls back to p95.
        assert_eq!(tail(&ramp(999)).expect("supported").pct, 95.0);
        // 200 samples: p95 leaves exactly 10.
        assert_eq!(tail(&ramp(200)).expect("supported").pct, 95.0);
        // 20 samples: only the median has 10 beyond it.
        assert_eq!(tail(&ramp(20)).expect("supported").pct, 50.0);
        // 19 samples: nothing qualifies.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
