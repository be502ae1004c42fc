//! Order statistics for the reported metrics.
//!
//! Timings are reported as a median plus a tail percentile. The tail
//! rule: a percentile is supported when at least [`MIN_TAIL_SAMPLES`]
//! samples lie beyond it, so `p90` needs at least 100 samples.
//! Quartiles match Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), which is how run-to-run spreads are
//! judged.

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// The highest percentile in [`TAILS`] with at least
/// [`MIN_TAIL_SAMPLES`] of `n` samples strictly beyond it, or `None`
/// when even `p75` has too few (fewer than 40 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| {
        // Samples beyond the nearest-rank position of `p`.
        let rank = nearest_rank(p, n);
        n.saturating_sub(rank) >= MIN_TAIL_SAMPLES
    })
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    // The 1e-9 keeps exact products such as 0.9 * 100 from rounding up
    // past the intended rank.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values` (any order). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let rank = nearest_rank(p, sorted.len());
    sorted.get(rank - 1).copied()
}

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// computes them. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let q = |i: usize| {
        let (n, m) = (4, len + 1);
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a metric's bound is compared against. `None` when the median
/// is zero or there are fewer than two values.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn p90_of_one_hundred_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        let beyond = v.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, 10);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&[], 90.0), None);
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[4.0; 6]), Some(0.0));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }
}
