//! Order statistics used for every reported number: medians over
//! passes, nearest-rank percentiles over per-call latencies, and the
//! quartile spread the acceptance rule is stated in.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice, so an unexercised layer reads as 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it (`p` in `(0, 1]`); 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The time reported for a repeated, deterministic piece of work: the
/// first decile of its repetitions (the fastest one, up to ten). Every
/// repetition does identical work, so the differences between them are
/// the host's doing, and on a shared host those are one-sided — bursts of
/// a few seconds that slow a pass by 5 to 40 %. A median moves with the
/// share of passes a burst happened to cover (17 % between runs of one
/// binary on one seed, measured); the fast tail does not.
pub fn first_decile(values: &[f64]) -> f64 {
    percentile(values, 0.1)
}

/// First, second and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance rule for this benchmark is computed with. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The interquartile distance as a share of the median — the run-to-run
/// spread a bound is compared against. 0 with fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.5), 1.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn first_decile_is_the_minimum_up_to_ten_samples() {
        assert_eq!(first_decile(&[3.0, 1.5, 2.0]), 1.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(first_decile(&ten), 1.0);
        let fifty: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        assert_eq!(first_decile(&fifty), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
