//! Order statistics over timing samples.

/// Linearly interpolated percentile (`p` in `[0, 100]`) of `samples`;
/// `NaN` for an empty slice. Sorts a copy, so the caller's order stays.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones an outside checker computes.
/// A single sample is its own quartiles; `None` when empty.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 25.0), 2.0);
        assert!((percentile(&s, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_of_hundred_samples_sits_between_the_90th_and_91st() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&s, 90.0) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(d, n=4)`.
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&d), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[7.0, 9.0]), Some((6.5, 9.5)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }
}
