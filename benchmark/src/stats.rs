//! The arithmetic every reported number rests on: medians, quartiles,
//! two-point fits, and relative spread.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile by the exclusive method — the same cut points
/// as Python's `statistics.quantiles(xs, n=4)`, which the acceptance check
/// uses. With fewer than two samples both are the sample itself.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (cut(1), cut(3))
}

/// Median of per-repetition timings of `f`, in seconds. `f` returns the
/// seconds it measured itself, so set-up inside it can stay untimed.
pub fn median_secs(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&samples)
}

/// The line through two measurements `(n, seconds)`: cost = intercept +
/// slope·n. The slope is the per-record cost, the intercept the fixed
/// per-call cost (for a bucketize: building P empty buckets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    pub slope: f64,
    pub intercept: f64,
}

pub fn fit_two(small: (f64, f64), large: (f64, f64)) -> Line {
    let slope = (large.1 - small.1) / (large.0 - small.0);
    Line {
        slope,
        intercept: small.1 - slope * small.0,
    }
}

/// Largest minus smallest value as a share of the smallest magnitude: how
/// far sets of the same code disagree. Zero when all values are equal.
pub fn rel_spread(xs: &[f64]) -> f64 {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi == lo {
        return 0.0;
    }
    (hi - lo) / lo.abs().min(hi.abs()).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn two_point_fit_recovers_slope_and_intercept() {
        // cost = 40 + 3n
        let line = fit_two((100.0, 340.0), (400.0, 1240.0));
        assert!((line.slope - 3.0).abs() < 1e-12);
        assert!((line.intercept - 40.0).abs() < 1e-9);
        // A pure per-record cost has no intercept.
        let line = fit_two((10.0, 20.0), (30.0, 60.0));
        assert!((line.slope - 2.0).abs() < 1e-12);
        assert!(line.intercept.abs() < 1e-12);
    }

    #[test]
    fn spread_is_relative_to_the_smaller_value() {
        assert_eq!(rel_spread(&[2.0, 2.0]), 0.0);
        assert!((rel_spread(&[100.0, 110.0]) - 0.10).abs() < 1e-12);
        assert!((rel_spread(&[110.0, 100.0, 105.0]) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn median_secs_takes_the_middle_repetition() {
        let mut it = [5.0, 1.0, 3.0].into_iter();
        assert_eq!(median_secs(3, || it.next().unwrap()), 3.0);
    }
}
