//! Order statistics the benchmark reports: medians, quartiles, and the
//! highest percentile a sample is large enough to support.

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method), so the spread printed here is the
/// one the driver computes. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks; like Python, a rank
        // clamped into the sample extrapolates rather than saturates.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Percentiles a tail report may use, highest first, in per mille (so
/// the sample-count arithmetic stays exact).
const TAILS: [usize; 7] = [999, 990, 980, 950, 900, 750, 500];

/// Nearest-rank percentile, `per_mille` thousandths of the way up.
pub fn percentile(xs: &[f64], per_mille: usize) -> f64 {
    assert!(!xs.is_empty(), "percentile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (per_mille * v.len()).div_ceil(1000).clamp(1, v.len());
    v[rank - 1]
}

/// The highest percentile of [`TAILS`] that leaves at least ten samples
/// beyond it, in per mille. A percentile with fewer samples above it is
/// set by a handful of outliers and does not repeat. Below twenty samples
/// only the median qualifies.
pub fn supported_tail(n: usize) -> usize {
    TAILS
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .unwrap_or(500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let xs: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.0, 6.0));
        // Two samples: Python extrapolates, [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_selector_keeps_ten_samples_beyond() {
        // 500 samples: p98 leaves exactly 10 beyond; p99 would leave 5.
        assert_eq!(supported_tail(500), 980);
        assert_eq!(supported_tail(499), 950);
        assert_eq!(supported_tail(1000), 990);
        assert_eq!(supported_tail(10_000), 999);
        assert_eq!(supported_tail(100), 900);
        assert_eq!(supported_tail(21), 500);
        // Too few for any tail: fall back to the median.
        assert_eq!(supported_tail(5), 500);
        assert_eq!(supported_tail(1), 500);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ramp: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile(&ramp, 980), 490.0);
        assert_eq!(percentile(&ramp, 500), 250.0);
        assert_eq!(percentile(&ramp, 999), 500.0);
        assert_eq!(percentile(&[7.0], 500), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 500), 2.0);
    }
}
