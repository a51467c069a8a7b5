//! Order statistics over raw samples.

/// The `p`-th percentile (0..=100) of an ascending slice, nearest rank.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of the values (the interquartile mean): as deaf
/// to outliers as the median, but it moves smoothly, where a median jumps,
/// when the values come from two regimes in changing proportion.
pub fn midmean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "midmean of no values");
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method) —
/// the rule the acceptance check of this benchmark is written against.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn midmean_drops_a_quarter_from_each_end() {
        assert_eq!(midmean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(midmean(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(midmean(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10u32, 20, 30, 40];
        assert_eq!(percentile(&v, 50.0), 20);
        assert_eq!(percentile(&v, 99.0), 40);
        assert_eq!(percentile(&v, 0.0), 10);
    }
}
