//! Operator definitions for the RDD lineage graph.
//!
//! Each RDD is produced by one operator. Narrow operators (map, filter, …)
//! are pipelined within a stage; wide operators (reduceByKey, join, …)
//! introduce shuffle boundaries, exactly as in Spark's `DAGScheduler`.
//!
//! Operators carry a *cost hint* — abstract compute units charged per input
//! record — which is how real per-partition record counts are turned into
//! virtual task durations on the simulated cluster.

use crate::partitioner::PartitionerSpec;
use crate::record::Record;
use std::sync::Arc;

/// Element-wise transform.
pub type MapFn = Arc<dyn Fn(&Record) -> Record + Send + Sync>;
/// One-to-many transform.
pub type FlatMapFn = Arc<dyn Fn(&Record) -> Vec<Record> + Send + Sync>;
/// Predicate for `filter`.
pub type FilterFn = Arc<dyn Fn(&Record) -> bool + Send + Sync>;
/// Associative, commutative combiner for `reduce_by_key`.
pub type ReduceFn =
    Arc<dyn Fn(&crate::record::Value, &crate::record::Value) -> crate::record::Value + Send + Sync>;
/// Deterministic per-partition generator for block-backed sources:
/// `gen(partition_index, num_partitions)` yields that partition's records.
pub type GenFn = Arc<dyn Fn(usize, usize) -> Vec<Record> + Send + Sync>;

/// The operator that produces an RDD.
#[derive(Clone)]
pub enum OpKind {
    /// An in-memory collection split into `partitions` even slices.
    SourceCollection {
        /// The records (shared, immutable).
        data: Arc<Vec<Record>>,
        /// Number of partitions to slice into.
        partitions: usize,
    },
    /// A block-store file with records generated deterministically per
    /// partition. The split count follows Spark's `textFile` rule —
    /// `max(block count, default parallelism)` — and is retunable through
    /// CHOPPER's configuration.
    SourceBlocks {
        /// File name in the block store.
        file: String,
        /// Generator producing the records of partition `i` of `n`.
        gen: GenFn,
    },
    /// Element-wise map. Drops any known partitioning (keys may change).
    Map {
        /// The transform.
        f: MapFn,
    },
    /// Value-only map: keys are untouched, so partitioning is preserved.
    MapValues {
        /// The transform (receives the whole record, must keep the key).
        f: MapFn,
    },
    /// One-to-many map.
    FlatMap {
        /// The transform.
        f: FlatMapFn,
    },
    /// Predicate filter. Preserves partitioning.
    Filter {
        /// The predicate.
        f: FilterFn,
    },
    /// Deterministic Bernoulli sample. Preserves partitioning.
    Sample {
        /// Keep probability in `[0, 1]`.
        fraction: f64,
        /// Sampling seed (combined with the partition index).
        seed: u64,
    },
    /// Shuffle + per-key reduction, with map-side combine.
    ReduceByKey {
        /// The combiner.
        f: ReduceFn,
        /// Explicit scheme, if the program pinned one.
        scheme: Option<PartitionerSpec>,
    },
    /// Shuffle grouping all values of a key into a `Value::List`.
    GroupByKey {
        /// Explicit scheme, if the program pinned one.
        scheme: Option<PartitionerSpec>,
    },
    /// Pure re-partitioning shuffle (identity on records).
    Repartition {
        /// Explicit scheme, if the program pinned one.
        scheme: Option<PartitionerSpec>,
    },
    /// Inner join of two keyed parents; emits `Pair(left, right)` per match.
    Join {
        /// Explicit scheme, if the program pinned one.
        scheme: Option<PartitionerSpec>,
    },
    /// Co-group of two keyed parents; emits `Pair(List(left), List(right))`.
    CoGroup {
        /// Explicit scheme, if the program pinned one.
        scheme: Option<PartitionerSpec>,
    },
}

impl OpKind {
    /// Whether this operator introduces a shuffle boundary.
    pub fn is_wide(&self) -> bool {
        matches!(
            self,
            OpKind::ReduceByKey { .. }
                | OpKind::GroupByKey { .. }
                | OpKind::Repartition { .. }
                | OpKind::Join { .. }
                | OpKind::CoGroup { .. }
        )
    }

    /// Whether this operator preserves the parent's partitioning.
    pub fn preserves_partitioning(&self) -> bool {
        matches!(
            self,
            OpKind::MapValues { .. } | OpKind::Filter { .. } | OpKind::Sample { .. }
        )
    }

    /// The explicit scheme attached to a wide operator, if any.
    pub fn explicit_scheme(&self) -> Option<PartitionerSpec> {
        match self {
            OpKind::ReduceByKey { scheme, .. }
            | OpKind::GroupByKey { scheme }
            | OpKind::Repartition { scheme }
            | OpKind::Join { scheme }
            | OpKind::CoGroup { scheme } => *scheme,
            _ => None,
        }
    }

    /// Stable discriminant used in stage signatures.
    pub fn discriminant(&self) -> &'static str {
        match self {
            OpKind::SourceCollection { .. } => "source-collection",
            OpKind::SourceBlocks { .. } => "source-blocks",
            OpKind::Map { .. } => "map",
            OpKind::MapValues { .. } => "map-values",
            OpKind::FlatMap { .. } => "flat-map",
            OpKind::Filter { .. } => "filter",
            OpKind::Sample { .. } => "sample",
            OpKind::ReduceByKey { .. } => "reduce-by-key",
            OpKind::GroupByKey { .. } => "group-by-key",
            OpKind::Repartition { .. } => "repartition",
            OpKind::Join { .. } => "join",
            OpKind::CoGroup { .. } => "co-group",
        }
    }
}

impl std::fmt::Debug for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.discriminant())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Value;

    #[test]
    fn wide_classification_matches_spark() {
        let map = OpKind::Map {
            f: Arc::new(|r: &Record| r.clone()),
        };
        assert!(!map.is_wide());
        let rbk = OpKind::ReduceByKey {
            f: Arc::new(|a: &Value, _b: &Value| a.clone()),
            scheme: None,
        };
        assert!(rbk.is_wide());
        assert!(OpKind::Join { scheme: None }.is_wide());
        assert!(OpKind::Repartition { scheme: None }.is_wide());
        assert!(!OpKind::Filter {
            f: Arc::new(|_| true)
        }
        .is_wide());
    }

    #[test]
    fn partitioning_preservation() {
        assert!(OpKind::Filter {
            f: Arc::new(|_| true)
        }
        .preserves_partitioning());
        assert!(OpKind::MapValues {
            f: Arc::new(|r: &Record| r.clone())
        }
        .preserves_partitioning());
        assert!(!OpKind::Map {
            f: Arc::new(|r: &Record| r.clone())
        }
        .preserves_partitioning());
    }

    #[test]
    fn explicit_scheme_surfaces() {
        let spec = PartitionerSpec::hash(42);
        let op = OpKind::Repartition { scheme: Some(spec) };
        assert_eq!(op.explicit_scheme(), Some(spec));
        assert_eq!(OpKind::Join { scheme: None }.explicit_scheme(), None);
    }

    #[test]
    fn discriminants_are_distinct() {
        let ops = [
            OpKind::Map {
                f: Arc::new(|r: &Record| r.clone()),
            }
            .discriminant(),
            OpKind::MapValues {
                f: Arc::new(|r: &Record| r.clone()),
            }
            .discriminant(),
            OpKind::Filter {
                f: Arc::new(|_| true),
            }
            .discriminant(),
            OpKind::Join { scheme: None }.discriminant(),
            OpKind::CoGroup { scheme: None }.discriminant(),
        ];
        let mut set = std::collections::HashSet::new();
        for d in ops {
            assert!(set.insert(d), "duplicate discriminant {d}");
        }
    }
}
