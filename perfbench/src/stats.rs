//! Order statistics used by every metric: median, the highest reportable
//! tail percentile, and the median of per-sample ratios against the
//! reference kernel.

/// Tail percentiles considered for reporting, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Minimum number of samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// One-based nearest rank of percentile `p` among `n` samples (the small
/// epsilon keeps `99.9% of 10000` at rank 9990 despite float rounding).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64) / 100.0 - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()).min(v.len()) - 1]
}

/// The highest percentile of [`TAILS`] with at least [`MIN_BEYOND`]
/// samples strictly above its rank, with its value; `None` when there are
/// too few samples for even the lowest one.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    TAILS.iter().find_map(|&p| (n >= rank(p, n) + MIN_BEYOND).then(|| (p, percentile(xs, p))))
}

/// Median of `sample[i] / reference[i]`: each timed sample divided by the
/// reference-kernel run made just before it, so host speed changes between
/// samples cancel.
pub fn paired_ratio(samples: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(samples.len(), reference.len(), "every sample needs its reference run");
    let ratios: Vec<f64> = samples.iter().zip(reference).map(|(s, r)| s / r).collect();
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_ignores_outliers() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 1e9, 1.0]), 1.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 1.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 above it, p95 only 5
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        // 1000 samples: p99 has 10 above it
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        // 10000 samples: p99.9 has 10 above it
        let xs: Vec<f64> = (1..=10000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.9, 9990.0)));
        // too few for p90
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn paired_ratio_cancels_host_speed() {
        // the host runs twice as slow for the last two samples; the ratio
        // to the reference run just before each sample does not move
        let samples = [2.0, 2.0, 4.0, 4.0, 2.0];
        let reference = [1.0, 1.0, 2.0, 2.0, 1.0];
        assert_eq!(paired_ratio(&samples, &reference), 2.0);
        assert_eq!(paired_ratio(&[3.0, 9.0, 6.0], &[1.0, 3.0, 1.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "reference run")]
    fn paired_ratio_rejects_unpaired() {
        paired_ratio(&[1.0, 2.0], &[1.0]);
    }
}
