//! Summary statistics for benchmark samples.

/// Median of `xs` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the spreads printed here match the acceptance rule.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let len = s.len();
    if len < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median (0 when the median is
/// 0).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// The highest whole percentile, capped at 99, that still has at least
/// ten samples beyond it: `p ≤ 1 − 10/n`. Below 20 samples no
/// percentile above the median qualifies, and the median is reported.
pub fn tail_percentile(n: usize) -> u32 {
    if n < 20 {
        return 50;
    }
    let p = (100 * (n - 10) / n) as u32;
    p.min(99)
}

/// The nearest-rank `p`-th percentile of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = (p as usize * s.len()).div_ceil(100).max(1);
    s[rank - 1]
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
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 2.5, 3.75));
        // Two points extrapolate: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0; 8]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50);
        assert_eq!(tail_percentile(19), 50);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(50_000), 99);
        for n in [20usize, 37, 100, 250, 999, 1000, 4321] {
            let p = tail_percentile(n) as usize;
            let beyond = n - (p * n).div_ceil(100);
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 99), 99.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&[2.0], 99), 2.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }
}
