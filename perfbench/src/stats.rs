//! Order statistics shared by every workload.

/// A tail percentile is reported only where at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (any order); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `(0, 1]` of ascending `sorted`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    // The epsilon keeps `0.99 * 1000` from rounding up to rank 991.
    let rank = ((q * n as f64) - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest quantile, at most `target`, that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it (never below the median).
pub fn supported_quantile(n: usize, target: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let cap = 1.0 - MIN_BEYOND as f64 / n as f64;
    target.min(cap).max(0.5)
}

/// A tail latency: the value and the quantile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at `quantile`.
    pub value: f64,
    /// The quantile actually used (`target` unless too few samples).
    pub quantile: f64,
}

/// Tail of `values` at `target`, lowered by [`supported_quantile`] when
/// the sample is too small to have [`MIN_BEYOND`] samples beyond it.
pub fn tail(values: &[f64], target: f64) -> Tail {
    if values.is_empty() {
        return Tail {
            value: 0.0,
            quantile: 0.5,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = supported_quantile(v.len(), target);
    Tail {
        value: nearest_rank(&v, quantile),
        quantile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(sorted: &[f64], value: f64) -> usize {
        sorted.iter().filter(|&&x| x > value).count()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!(t.quantile, 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!(beyond(&v, t.value), MIN_BEYOND);

        // 999 samples cannot support p99: the rule lowers the quantile.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert!(t.quantile < 0.99);
        assert_eq!(beyond(&v, t.value), MIN_BEYOND);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v, 0.95);
        assert_eq!(t.quantile, 0.95);
        assert_eq!(beyond(&v, t.value), MIN_BEYOND);
        let t = tail(&v[..150], 0.95);
        assert!((t.quantile - (1.0 - 10.0 / 150.0)).abs() < 1e-12);
    }

    #[test]
    fn every_size_keeps_ten_samples_beyond_the_tail() {
        for n in 20..3000usize {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for target in [0.95, 0.99] {
                let t = tail(&v, target);
                assert!(t.quantile <= target);
                assert!(
                    beyond(&v, t.value) >= MIN_BEYOND,
                    "n={n} target={target} q={}",
                    t.quantile
                );
                // And it is the highest such percentile: one rank
                // higher would leave fewer than ten beyond (unless the
                // target itself capped it).
                if t.quantile < target {
                    assert_eq!(beyond(&v, t.value), MIN_BEYOND, "n={n}");
                }
            }
        }
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        let v = [5.0, 1.0, 3.0];
        let t = tail(&v, 0.99);
        assert_eq!(t.quantile, 0.5);
        assert_eq!(t.value, 3.0);
    }
}
