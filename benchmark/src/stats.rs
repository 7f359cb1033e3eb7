//! Order statistics for the result lines and the A/A table.

/// Median of a sorted slice (mean of the two middle values when even).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// Median of unsorted nanosecond samples.
pub fn median_ns(samples: &[u64]) -> f64 {
    let as_f64: Vec<f64> = samples.iter().map(|ns| *ns as f64).collect();
    median(&as_f64)
}

/// The tail percentiles a report may quote, lowest first, in hundredths
/// of a percent (integers keep the ten-sample rule exact).
pub const TAIL_CANDIDATES: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest candidate percentile that still has at least ten samples
/// beyond it — a tail quoted from fewer samples is one slow op, not a
/// property of the program. Falls back to the median.
pub fn tail_percentile(samples: usize) -> f64 {
    let beyond_is_ten = |p: &u64| samples as u64 * (10_000 - p) >= 10 * 10_000;
    let p = TAIL_CANDIDATES.iter().copied().rfind(beyond_is_ten);
    p.unwrap_or(TAIL_CANDIDATES[0]) as f64 / 100.0
}

/// Nearest-rank percentile of a sorted slice.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(max − min) / median`: the A/A spread of a handful of runs.
pub fn range_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let med = median_sorted(&v);
    if v.is_empty() || med == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(99_999), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
        assert_eq!(tail_percentile(10_000_000), 99.99);
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_ns(&[5, 1, 9]), 5.0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn spreads() {
        assert!((range_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
