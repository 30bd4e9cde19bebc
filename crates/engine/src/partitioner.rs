//! Hash and range partitioners (paper Section II-A / III-B).
//!
//! * The **hash partitioner** assigns `stable_hash(key) mod P` — insensitive
//!   to data content but prone to load skew under hot keys, since identical
//!   keys always land together.
//! * The **range partitioner** splits the key space into `P` contiguous
//!   ranges whose bounds are estimated by sampling the data (as Spark does
//!   when constructing a `RangePartitioner`). It balances load even with hot
//!   spots spread across the key space, but its quality depends on how well
//!   the sample represents the data.
//!
//! CHOPPER chooses between the two per stage by comparing fitted cost models
//! (Algorithm 1).

use crate::record::Key;
use numeric::Reservoir;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which family a partitioner belongs to — what CHOPPER's config file
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionerKind {
    /// Hash-modulo partitioning (Spark's default).
    Hash,
    /// Sampled range partitioning.
    Range,
}

impl std::fmt::Display for PartitionerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionerKind::Hash => write!(f, "hash"),
            PartitionerKind::Range => write!(f, "range"),
        }
    }
}

impl std::str::FromStr for PartitionerKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "hash" | "hashpartitioner" => Ok(PartitionerKind::Hash),
            "range" | "rangepartitioner" => Ok(PartitionerKind::Range),
            other => Err(format!("unknown partitioner kind: {other}")),
        }
    }
}

/// A serializable partitioning scheme: what kind of partitioner to build and
/// how many partitions it should produce. The concrete range bounds are
/// derived from data at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PartitionerSpec {
    /// Partitioner family.
    pub kind: PartitionerKind,
    /// Number of output partitions.
    pub partitions: usize,
}

impl PartitionerSpec {
    /// Hash scheme with `p` partitions.
    pub fn hash(p: usize) -> Self {
        PartitionerSpec {
            kind: PartitionerKind::Hash,
            partitions: p,
        }
    }

    /// Range scheme with `p` partitions.
    pub fn range(p: usize) -> Self {
        PartitionerSpec {
            kind: PartitionerKind::Range,
            partitions: p,
        }
    }
}

/// Assigns keys to partitions.
pub trait Partitioner: Send + Sync {
    /// Number of output partitions.
    fn num_partitions(&self) -> usize;
    /// Partition index for `key`, in `0..num_partitions()`.
    fn partition(&self, key: &Key) -> usize;
    /// The family this partitioner belongs to.
    fn kind(&self) -> PartitionerKind;
}

/// `stable_hash(key) mod P`.
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    partitions: usize,
}

impl HashPartitioner {
    /// Creates a hash partitioner over `partitions` buckets.
    ///
    /// # Panics
    /// Panics if `partitions` is zero.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "partition count must be positive");
        HashPartitioner { partitions }
    }
}

impl Partitioner for HashPartitioner {
    fn num_partitions(&self) -> usize {
        self.partitions
    }
    fn partition(&self, key: &Key) -> usize {
        (key.stable_hash() % self.partitions as u64) as usize
    }
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::Hash
    }
}

/// Range partitioner with explicit upper bounds.
///
/// `bounds` has `P - 1` sorted keys; partition `i` holds keys `k` with
/// `bounds[i-1] < k <= bounds[i]` (first and last ranges unbounded below /
/// above). Keys are compared with `Key`'s total order.
#[derive(Debug, Clone)]
pub struct RangePartitioner {
    bounds: Vec<Key>,
    /// `bounds` as integers, when every bound is a `Key::Int`: an integer
    /// key is then placed by the same binary search over plain `i64`s.
    int_bounds: Option<Vec<i64>>,
    partitions: usize,
}

impl RangePartitioner {
    /// Builds a partitioner from pre-computed bounds.
    pub fn from_bounds(bounds: Vec<Key>, partitions: usize) -> Self {
        assert!(partitions > 0, "partition count must be positive");
        assert!(
            bounds.len() < partitions,
            "need fewer bounds than partitions"
        );
        debug_assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "bounds must be sorted"
        );
        let int_bounds = bounds
            .iter()
            .map(|b| match b {
                Key::Int(i) => Some(*i),
                _ => None,
            })
            .collect();
        RangePartitioner {
            bounds,
            int_bounds,
            partitions,
        }
    }

    /// Estimates bounds by reservoir-sampling `keys` — mirroring Spark's
    /// `RangePartitioner(partitions, rdd)` construction.
    ///
    /// The sample capacity is `20 × partitions` (Spark's default heuristic),
    /// and the sampler is seeded so the result is deterministic.
    pub fn from_sample<'a, I>(keys: I, partitions: usize, seed: u64) -> Self
    where
        I: IntoIterator<Item = &'a Key>,
    {
        assert!(partitions > 0, "partition count must be positive");
        let mut reservoir = Reservoir::new((20 * partitions).max(1), seed);
        for k in keys {
            reservoir.offer(k.clone());
        }
        let mut sample = reservoir.into_items();
        sample.sort();
        let bounds = if sample.is_empty() || partitions == 1 {
            Vec::new()
        } else {
            // Pick P-1 evenly spaced quantile bounds from the sorted sample,
            // deduplicated to keep ranges well-formed.
            let mut bounds = Vec::with_capacity(partitions - 1);
            for i in 1..partitions {
                let idx = i * sample.len() / partitions;
                let candidate = sample[idx.min(sample.len() - 1)].clone();
                if bounds.last() != Some(&candidate) {
                    bounds.push(candidate);
                }
            }
            bounds
        };
        RangePartitioner::from_bounds(bounds, partitions)
    }

    /// The range bounds (`P - 1` or fewer keys).
    pub fn bounds(&self) -> &[Key] {
        &self.bounds
    }
}

impl Partitioner for RangePartitioner {
    fn num_partitions(&self) -> usize {
        self.partitions
    }
    fn partition(&self, key: &Key) -> usize {
        // First bound >= key ⇒ that range; after all bounds ⇒ last range.
        // `Key::Int`s order as their `i64`s, and a search's probes depend
        // only on the slice length and the comparisons, so both searches
        // land on the same index — duplicate bounds included.
        let found = match (&self.int_bounds, key) {
            (Some(ints), Key::Int(k)) => ints.binary_search(k),
            _ => self.bounds.binary_search_by(|b| b.cmp(key)),
        };
        match found {
            Ok(i) => i,
            Err(i) => i.min(self.partitions - 1),
        }
    }
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::Range
    }
}

/// Builds a concrete partitioner for a scheme, sampling `keys` when a range
/// partitioner is requested.
pub fn build_partitioner<'a, I>(spec: PartitionerSpec, keys: I, seed: u64) -> Arc<dyn Partitioner>
where
    I: IntoIterator<Item = &'a Key>,
{
    match spec.kind {
        PartitionerKind::Hash => Arc::new(HashPartitioner::new(spec.partitions)),
        PartitionerKind::Range => {
            Arc::new(RangePartitioner::from_sample(keys, spec.partitions, seed))
        }
    }
}

/// Max/mean partition-size skew of an assignment produced by `partitioner`
/// over `keys` (1.0 = perfectly balanced).
pub fn measure_skew<'a, I>(partitioner: &dyn Partitioner, keys: I) -> f64
where
    I: IntoIterator<Item = &'a Key>,
{
    let mut counts = vec![0.0f64; partitioner.num_partitions()];
    let mut total = 0u64;
    for k in keys {
        counts[partitioner.partition(k)] += 1.0;
        total += 1;
    }
    if total == 0 {
        return 1.0;
    }
    // One skew definition tree-wide: the trace summary's max/mean ratio.
    trace::skew_ratio(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = HashPartitioner::new(7);
        for i in 0..1000 {
            let k = Key::Int(i);
            let a = p.partition(&k);
            assert!(a < 7);
            assert_eq!(a, p.partition(&k));
        }
    }

    #[test]
    fn hash_partitioner_spreads_uniform_keys() {
        let p = HashPartitioner::new(10);
        let keys: Vec<Key> = (0..10_000).map(Key::Int).collect();
        let skew = measure_skew(&p, keys.iter());
        assert!(skew < 1.2, "uniform int keys should balance, skew={skew}");
    }

    #[test]
    fn hash_partitioner_collapses_hot_keys() {
        // All records share one key → everything lands in one partition.
        let p = HashPartitioner::new(10);
        let keys = vec![Key::Int(7); 1000];
        let skew = measure_skew(&p, keys.iter());
        assert!(
            (skew - 10.0).abs() < 1e-9,
            "hot key skew should be P, got {skew}"
        );
    }

    #[test]
    fn range_partitioner_respects_bounds() {
        let p = RangePartitioner::from_bounds(vec![Key::Int(10), Key::Int(20)], 3);
        assert_eq!(p.partition(&Key::Int(-5)), 0);
        assert_eq!(
            p.partition(&Key::Int(10)),
            0,
            "bound itself belongs to lower range"
        );
        assert_eq!(p.partition(&Key::Int(11)), 1);
        assert_eq!(p.partition(&Key::Int(20)), 1);
        assert_eq!(p.partition(&Key::Int(25)), 2);
    }

    /// The integer path places every key where the `Key` search does: on
    /// duplicate bounds, on keys equal to a bound, between and beyond them.
    #[test]
    fn int_bounds_search_like_key_bounds() {
        let key_search = |p: &RangePartitioner, k: &Key| match p.bounds.binary_search(k) {
            Ok(i) => i,
            Err(i) => i.min(p.partitions - 1),
        };
        let shapes: [&[i64]; 6] = [
            &[],
            &[5],
            &[3, 3, 3],
            &[-4, 0, 0, 7, 7, 7, 7, 12],
            &[1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6],
            &[i64::MIN, 0, 0, i64::MAX],
        ];
        for bounds in shapes {
            for partitions in [bounds.len() + 1, bounds.len() + 5] {
                let keys = bounds.iter().map(|&b| Key::Int(b)).collect();
                let p = RangePartitioner::from_bounds(keys, partitions);
                assert!(p.int_bounds.is_some());
                let probes = bounds
                    .iter()
                    .flat_map(|&b| [b.saturating_sub(1), b, b.saturating_add(1)])
                    .chain([i64::MIN, -1, 0, 1, i64::MAX]);
                for k in probes.map(Key::Int) {
                    assert_eq!(
                        p.partition(&k),
                        key_search(&p, &k),
                        "{bounds:?} P={partitions} {k:?}"
                    );
                }
            }
        }
        // A non-integer key, or a non-integer bound, takes the `Key` search.
        let ints = RangePartitioner::from_bounds(vec![Key::Int(1), Key::Int(9)], 3);
        for k in [
            Key::None,
            Key::str("a"),
            Key::Pair(Box::new(Key::Int(1)), Box::new(Key::None)),
        ] {
            assert_eq!(ints.partition(&k), key_search(&ints, &k), "{k:?}");
        }
        let mixed = RangePartitioner::from_bounds(vec![Key::Int(4), Key::str("m")], 3);
        assert!(mixed.int_bounds.is_none());
        for k in [
            Key::Int(3),
            Key::Int(4),
            Key::Int(99),
            Key::str("a"),
            Key::str("z"),
        ] {
            assert_eq!(mixed.partition(&k), key_search(&mixed, &k), "{k:?}");
        }
    }

    #[test]
    fn range_partitioner_orders_output() {
        // Partition index must be monotone in the key.
        let keys: Vec<Key> = (0..1000).map(Key::Int).collect();
        let p = RangePartitioner::from_sample(keys.iter(), 8, 42);
        let mut last = 0;
        for k in &keys {
            let part = p.partition(k);
            assert!(part >= last, "range partitioning must be monotone");
            last = part;
        }
        assert_eq!(last, 7, "top keys reach the last partition");
    }

    #[test]
    fn range_partitioner_balances_uniform_data() {
        let keys: Vec<Key> = (0..20_000).map(Key::Int).collect();
        let p = RangePartitioner::from_sample(keys.iter(), 10, 7);
        let skew = measure_skew(&p, keys.iter());
        assert!(
            skew < 1.5,
            "sampled ranges should be roughly even, skew={skew}"
        );
    }

    #[test]
    fn range_partitioner_balances_clustered_hot_range_better_than_hash_on_strings() {
        // Zipf-ish string keys: range sampling adapts bounds to density.
        let mut keys = Vec::new();
        for i in 0..1000 {
            let reps = if i < 50 { 40 } else { 1 };
            for _ in 0..reps {
                keys.push(Key::Int(i));
            }
        }
        let range = RangePartitioner::from_sample(keys.iter(), 10, 3);
        let skew = measure_skew(&range, keys.iter());
        assert!(skew < 2.0, "range bounds adapt to density, skew={skew}");
    }

    #[test]
    fn range_partitioner_single_partition() {
        let p = RangePartitioner::from_sample([Key::Int(1)].iter(), 1, 0);
        assert_eq!(p.partition(&Key::Int(99)), 0);
    }

    #[test]
    fn range_partitioner_empty_sample() {
        let p = RangePartitioner::from_sample(std::iter::empty::<&Key>(), 5, 0);
        assert_eq!(
            p.partition(&Key::Int(3)),
            0,
            "no bounds → everything in partition 0"
        );
        assert_eq!(p.num_partitions(), 5);
    }

    #[test]
    fn duplicate_heavy_sample_dedups_bounds() {
        let keys = vec![Key::Int(1); 500];
        let p = RangePartitioner::from_sample(keys.iter(), 4, 0);
        assert!(
            p.bounds().len() <= 1,
            "identical sample keys collapse to one bound"
        );
        // All identical keys map to one partition — skew is unavoidable here.
        assert!(p.partition(&Key::Int(1)) < 4);
    }

    #[test]
    fn build_partitioner_matches_spec() {
        let keys: Vec<Key> = (0..100).map(Key::Int).collect();
        let h = build_partitioner(PartitionerSpec::hash(4), keys.iter(), 1);
        assert_eq!(h.kind(), PartitionerKind::Hash);
        assert_eq!(h.num_partitions(), 4);
        let r = build_partitioner(PartitionerSpec::range(4), keys.iter(), 1);
        assert_eq!(r.kind(), PartitionerKind::Range);
        assert_eq!(r.num_partitions(), 4);
    }

    #[test]
    fn kind_parses_both_ways() {
        assert_eq!(
            "hash".parse::<PartitionerKind>().unwrap(),
            PartitionerKind::Hash
        );
        assert_eq!(
            "RangePartitioner".parse::<PartitionerKind>().unwrap(),
            PartitionerKind::Range
        );
        assert!("zebra".parse::<PartitionerKind>().is_err());
        assert_eq!(PartitionerKind::Hash.to_string(), "hash");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_partitions_panics() {
        let _ = HashPartitioner::new(0);
    }
}
