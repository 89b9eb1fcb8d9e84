//! Exact-sample statistics. Percentiles are read from the sorted
//! samples themselves (nearest rank), never from histogram buckets.

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary rounding (99.9 % of 10 000 computes as
    // 9990.000000000002) from pushing an exact rank up by one.
    (p / 100.0 * n as f64 - 1e-9).ceil() as usize
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Percentiles the tail metric may report, highest first. A fixed
/// grid keeps the reported percentile the same from run to run while
/// the sample count stays within one step.
const TAIL_GRID: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples the tail metric leaves beyond it.
const BEYOND: usize = 10;

/// The highest grid percentile with at least [`BEYOND`] samples beyond
/// it, and its value; the maximum when even p90 has fewer.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    TAIL_GRID
        .into_iter()
        .find(|&p| n - rank(n, p).min(n) >= BEYOND)
        .map_or((100.0, sorted.last().copied().unwrap_or(0.0)), |p| {
            (p, percentile(sorted, p))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        assert_eq!(percentile(&v, 99.0), 990.0);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).0, 95.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.9, 9990.0));
        assert_eq!(tail(&[3.0, 4.0]), (100.0, 4.0));
    }
}
