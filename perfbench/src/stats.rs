//! Summary statistics for benchmark samples.

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise its value would rest on a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Number of samples that lie beyond the `q`-quantile of `n` samples:
/// those ranked above `⌈q·n⌉`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The `q`-quantile (0 < q < 1) of `xs`, linearly interpolated between
/// the closest ranks, or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || beyond(xs.len(), q) < MIN_BEYOND {
        return None;
    }
    let s = sorted(xs);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// Smallest sample count for which [`percentile`] reports the
/// `q`-quantile.
pub fn samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p75_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(beyond(40, 0.75), 10);
        assert!(percentile(&xs, 0.75).is_some());
        assert_eq!(beyond(39, 0.75), 9);
        assert!(percentile(&xs[..39], 0.75).is_none());
        assert_eq!(samples_for(0.75), 40);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.5));
        assert!(percentile(&xs[..19], 0.5).is_none());
        assert_eq!(samples_for(0.5), 20);
        assert_eq!(samples_for(0.9), 100);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        // 0..=99 shuffled: the 0.75-quantile sits at rank 74.25.
        let mut xs: Vec<f64> = (0..100).map(f64::from).collect();
        xs.reverse();
        let p = percentile(&xs, 0.75).unwrap();
        assert!((p - 74.25).abs() < 1e-12, "{p}");
        assert_eq!(percentile(&xs, 0.5), Some(49.5));
    }
}
