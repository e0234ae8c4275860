//! Order statistics over measured samples.

/// Samples a tail percentile needs beyond it before the benchmark reports
/// it (fewer and the "percentile" is one or two outliers).
pub const TAIL_SUPPORT: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by the nearest-rank rule. Sorts
/// `xs` in place; `NaN` for an empty slice.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest of the reported tail percentiles (99, 95, 90, 50) that has
/// at least [`TAIL_SUPPORT`] samples beyond it among `n` samples.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= TAIL_SUPPORT as f64)
        .unwrap_or(50.0)
}

/// `num / den`, or 0 when nothing was counted (a ratio of a layer the
/// workload never entered).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(20), 50.0);
    }
}
