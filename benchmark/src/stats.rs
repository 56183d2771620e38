//! Estimators: exact percentiles, medians, quartile spread, best-of-R.
//!
//! Host-clock samples are never averaged: a rep that was descheduled or ran
//! on a cold cache only ever reads slower, so the fastest rep is the least
//! disturbed one and the median and quartile spread say how disturbed the
//! rest were.

/// Exact `q`-quantile (nearest rank: the `ceil(q·n)`-th smallest) of an
/// ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns the exact `q`-quantile.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, q)
}

/// Mean of integer samples (0 when empty).
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = ascending(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method) so the spread
/// printed here is the one the acceptance driver computes. 0 below two
/// samples.
pub fn iqr(values: &[f64]) -> f64 {
    let v = ascending(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    quartile(3) - quartile(1)
}

/// The fastest (smallest) sample: the best-of-R estimator.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.999), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        let mut unsorted = vec![30, 10, 20, 40];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 20);
        assert_eq!(percentile_of(&mut unsorted, 0.75), 30);
        assert_eq!(percentile_of(&mut unsorted, 0.76), 40);
    }

    #[test]
    fn median_and_best_on_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(best(&[3.35, 2.99, 4.72, 3.04]), 2.99);
        assert_eq!(mean(&[1, 2, 6]), 3.0);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([2.99, 3.04, 3.35], n=4) == [2.99, 3.04, 3.35]
        assert!((iqr(&[3.35, 2.99, 3.04]) - 0.36).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr(&[1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr(&[5.0]), 0.0);
    }
}
