//! Sample statistics: median, nearest-rank percentiles that refuse to report
//! a tail the sample cannot support, and quartiles.

/// A percentile is reported only when at least this many samples lie beyond
/// it; with fewer, one slow sample moves the value and a comparison of two
/// runs reads noise.
pub const SAMPLES_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The mean, 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The median (mean of the two middle values for an even count), `None` for
/// an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest sample
/// with at least `p` percent of the sample at or below it.  `None` — printed
/// as "unsupported" — when fewer than [`SAMPLES_BEYOND`] samples lie beyond
/// that rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let n = samples.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
    if n < rank + SAMPLES_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The quartiles `(q1, q2, q3)` as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here agrees with
/// one computed by a script.  `None` with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        // 100 samples 1..=100: the p-th percentile is p itself.
        let samples = ramp(100);
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 1.0), Some(1.0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p95 of 199 samples has rank 190, leaving 9 beyond; of 200, rank
        // 190 leaves 10.
        assert_eq!(percentile(&ramp(199), 95.0), None);
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        // The median needs 20 samples, which is why an 80-publish run
        // reports p50 only.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(80), 95.0), None);
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn quartiles_agree_with_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4)
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
