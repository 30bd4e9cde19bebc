//! The summary statistics every report in the tree shares: the one skew
//! definition, nearest-rank percentiles, and the executor pool's
//! scheduling counters.

use std::borrow::Borrow;

/// max/mean skew ratio of a set of per-task magnitudes (durations, byte
/// counts, record counts — any non-negative load measure), in one pass.
///
/// Returns 1.0 (perfectly balanced) for no values or a zero mean so
/// callers can multiply/compare without guarding. This is the *single*
/// definition of "skew" in the tree: the engine's task-time skew metric
/// and a stage's written-bucket skew both call it, so the two read on
/// one scale.
pub fn skew_ratio(values: impl IntoIterator<Item = impl Borrow<f64>>) -> f64 {
    let (mut n, mut sum, mut max) = (0usize, 0.0f64, f64::MIN);
    for v in values {
        let v = *v.borrow();
        n += 1;
        sum += v;
        max = max.max(v);
    }
    if n == 0 {
        return 1.0;
    }
    let mean = sum / n as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    max / mean
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
///
/// Returns 0.0 for an empty slice. Nearest-rank keeps the result an
/// actual observed sample, which makes summaries bit-deterministic.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Executor-pool scheduling counters (host wall clock, diagnostic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// `map` calls served by the pool.
    pub jobs: u64,
    /// Total items processed across all jobs.
    pub items: u64,
    /// Items executed by a participant other than the block owner.
    pub stolen: u64,
    /// Worker wake-ups that found no runnable job.
    pub idle_epochs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 95.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn skew_is_max_over_mean_from_slices_and_iterators_alike() {
        let v = [1.0, 1.0, 4.0];
        assert_eq!(skew_ratio(v.as_slice()), 2.0);
        assert_eq!(skew_ratio(v.iter().map(|x| x * 3.0)), 2.0);
        assert_eq!(skew_ratio(std::iter::empty::<f64>()), 1.0);
        assert_eq!(skew_ratio([0.0, 0.0]), 1.0);
    }
}
