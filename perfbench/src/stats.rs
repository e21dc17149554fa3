//! Order statistics and the open-loop arrival schedule.

use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Samples beyond the reported tail percentile (the tail rule).
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank `p`-th percentile (`p` in 0..=100); `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples beyond it. Returns `(percentile, value)`;
/// `None` when there are not more than `TAIL_BEYOND` samples.
///
/// With `n` samples sorted ascending this is the sample at 1-based rank
/// `n - TAIL_BEYOND`, i.e. the `100·(n − 10)/n`-th percentile.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// Due times of a Poisson arrival process with `rate_per_s` over
/// `[0, horizon)`, drawn from `seed`, conditioned on its expected count:
/// exactly `round(rate · horizon)` arrivals at independent uniform times.
/// (Given its count, a Poisson process's arrival times are i.i.d.
/// uniform; fixing the count keeps the offered load identical from seed
/// to seed, where a free count would move it by ±1/√count.)
pub fn poisson_schedule(rate_per_s: f64, horizon: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let count = (rate_per_s * horizon.as_secs_f64()).round() as usize;
    let mut out: Vec<Duration> = (0..count)
        .map(|_| horizon.mul_f64(rng.gen_range(0.0..1.0)))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (p, v) = tail(&values).unwrap();
        assert_eq!(p, 90.0);
        assert_eq!(v, 90.0);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);

        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (p, v) = tail(&values).unwrap();
        assert_eq!(p, 99.5);
        assert_eq!(v, 1990.0);

        let (p, v) = tail(&(0..11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(
            (v, (p * 1e6).round()),
            (0.0, (100.0 / 11.0 * 1e6_f64).round())
        );
        assert!(tail(&[1.0; 10]).is_none());
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn poisson_schedule_reproduces_from_its_seed() {
        let horizon = Duration::from_secs(20);
        let a = poisson_schedule(200.0, horizon, 11);
        let b = poisson_schedule(200.0, horizon, 11);
        let c = poisson_schedule(200.0, horizon, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &horizon);
        assert_eq!(a.len(), 4000);
        // Exponential gaps: mean 1/rate and a coefficient of variation
        // near 1 (a regular schedule would have 0).
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.005).abs() < 0.0005, "{mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.1,
            "{}",
            var.sqrt() / mean
        );
    }
}
