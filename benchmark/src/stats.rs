//! Order statistics over small timing samples.

/// Median of `values` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no sample is a bug in the
/// benchmark, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has ten samples beyond it, as
/// `(percentile, value)`: the sample with exactly ten larger samples
/// above it, and the share of the samples at or below it. `None` with
/// fewer than eleven samples — no percentile is supported then.
pub fn tail_with_ten_beyond(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = n - 11;
    Some((100.0 * (at + 1) as f64 / n as f64, v[at]))
}

/// Nearest-rank percentile (`pct` in 0..=100) of `values`.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Smallest and largest sample.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

/// Min–max spread as a share of the median: `(max − min) / median`.
/// This is the run-to-run noise `compare` holds against a metric's
/// bound; zero for a single sample or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (min, max) = min_max(values);
    (max - min) / m.abs()
}
