//! Percentiles of a sample.

/// Linear-interpolated percentile of a sample (`q` in `[0, 1]`). The
/// sample is ordered by [`f64::total_cmp`], so a NaN sorts last and does
/// not panic.
///
/// # Panics
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_sorts_nan_last() {
        let v = [4.0, f64::NAN, 1.0, 3.0, 2.0];
        assert!(percentile(&v, 1.0).is_nan());
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.75), 4.0);
        // Without the NaN the order, and so every percentile, is as before.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 0.5);
    }
}
