//! Order statistics used by every workload.
//!
//! Tail percentiles follow one rule: a percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie beyond it, so a p99 never rests on one
//! unlucky sample. Quartiles use the same interpolation as Python's
//! `statistics.quantiles(data, n=4)` (its default "exclusive" method), so
//! the per-run figures and the summaries `repeat.py` prints agree.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending (NaNs are a caller bug).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median of `values` (mean of the two middle samples for an even
/// count), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile of `values`, but only when at least
/// [`MIN_BEYOND`] samples lie above its rank; `None` otherwise.
///
/// Rank is `ceil(p/100 * n)` (1-based), so with 1 000 samples p99 is the
/// 990th value and the 10 values above it back it up.
pub fn tail(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (n - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// The highest whole percentile at or below `cap` that [`tail`] can
/// report for `n` samples, if any above the median.
pub fn highest_tail(n: usize, cap: u32) -> Option<u32> {
    (51..=cap).rev().find(|&p| {
        let rank = ((p as f64 / 100.0) * n as f64).ceil().max(1.0) as usize;
        n >= rank && n - rank >= MIN_BEYOND
    })
}

/// First quartile, median and third quartile, interpolated exactly as
/// Python's `statistics.quantiles(values, n=4)`. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(2), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990: ten samples (991..=1000) lie beyond it.
        assert_eq!(tail(&thousand, 99.0), Some(990.0));
        let beyond = thousand.iter().filter(|&&x| x > 990.0).count();
        assert!(beyond >= MIN_BEYOND);
        // One sample fewer and p99 would rest on nine samples.
        assert_eq!(tail(&thousand[..999], 99.0), None);
        // 128 samples (the old serve storm) cannot support a p99 ...
        assert_eq!(tail(&thousand[..128], 99.0), None);
        // ... and the highest percentile they can support is p92.
        assert_eq!(highest_tail(128, 99), Some(92));
        let p = tail(&thousand[..128], 92.0).unwrap();
        assert!(thousand[..128].iter().filter(|&&x| x > p).count() >= MIN_BEYOND);
        // p90 over 100 edits is backed by exactly ten.
        assert_eq!(tail(&thousand[..100], 90.0), Some(90.0));
        assert_eq!(tail(&thousand[..99], 90.0), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 7919) % 200)).collect();
        let a = tail(&v, 95.0);
        v.reverse();
        assert_eq!(a, tail(&v, 95.0));
        assert_eq!(a, Some(189.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
