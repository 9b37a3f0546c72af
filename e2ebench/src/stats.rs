//! Order statistics used by every report the benchmark prints.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of ascending `sorted` at quantile `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} out of (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile is reported only when at least ten samples lie beyond it;
/// fewer would make the tail one or two unlucky requests.
pub fn supports_percentile(samples: usize, q: f64) -> bool {
    // Rounded so that 1000 samples support p99 despite 1 - 0.99 != 0.01.
    (samples as f64 * (1.0 - q) * 1e6).round() >= 10.0 * 1e6
}

/// How much slower the 2n input is than the n input: the ratio of their
/// median times. About 2 for linear work, 4 for quadratic.
pub fn complexity_ratio(times_2n: &[f64], times_n: &[f64]) -> f64 {
    median(times_2n) / median(times_n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), 990.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(999, 0.99));
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(19, 0.5));
        assert!(supports_percentile(10_000, 0.999));
        assert!(!supports_percentile(9_999, 0.999));
    }

    #[test]
    fn ratio_is_linear_two_and_quadratic_four() {
        let n = [1.0, 1.1, 0.9];
        let linear = [2.0, 2.2, 1.8];
        let quadratic = [4.0, 4.4, 3.6, 100.0, 3.9];
        assert!((complexity_ratio(&linear, &n) - 2.0).abs() < 1e-12);
        // The median ignores one outlier run.
        assert!((complexity_ratio(&quadratic, &n) - 4.0).abs() < 1e-12);
    }
}
