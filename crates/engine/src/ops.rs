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
use crate::record::{Record, Value};
use std::sync::Arc;

/// Element-wise transform: `f(record, out)` writes the record's output
/// over `out`.
///
/// `out` is a scratch record the executor keeps for the task's pass. When
/// nothing downstream keeps what the map produces — the pass ends in a
/// count or a map-side combine, which folds it by reference — the same
/// scratch comes back for the next record, still holding the last output,
/// so a closure that writes into its buffers ([`Value::vector_mut`],
/// [`Value::pair_mut`]) allocates nothing per record. When the pass keeps
/// its records (a collect, a cache, a shuffle write without a combine) the
/// output is taken and `out` starts as [`Record::default`]. Either way the
/// closure must write every part of the output: a key or a value it leaves
/// alone may be the last record's. `*out = Record::new(..)` is always
/// right. The closure's parameters must be annotated.
///
/// ```
/// use engine::{Key, MapFn, Record, Value};
/// use std::sync::Arc;
///
/// // Each point keyed by its sign, scaled by two, in `out`'s own buffer.
/// let double: MapFn = Arc::new(|r: &Record, out: &mut Record| {
///     let x = r.value.as_vector();
///     out.key = Key::Int(i64::from(x[0] >= 0.0));
///     for (o, v) in out.value.vector_mut(x.len()).iter_mut().zip(x) {
///         *o = 2.0 * v;
///     }
/// });
/// let mut out = Record::default();
/// double(&Record::keyless(Value::vector(vec![1.0, -2.0])), &mut out);
/// assert_eq!(out, Record::new(Key::Int(1), Value::vector(vec![2.0, -4.0])));
/// double(&Record::keyless(Value::vector(vec![-3.0, 0.5])), &mut out);
/// assert_eq!(out, Record::new(Key::Int(0), Value::vector(vec![-6.0, 1.0])));
/// ```
pub type MapFn = Arc<dyn Fn(&Record, &mut Record) + Send + Sync>;
/// One-to-many transform: `f(record, out)` produces the record's outputs
/// into `out`, in order (see [`Emit`]).
pub type FlatMapFn = Arc<dyn Fn(&Record, &mut dyn Emit) + Send + Sync>;
/// Predicate for `filter`.
pub type FilterFn = Arc<dyn Fn(&Record) -> bool + Send + Sync>;

/// The combiner of a `reduce_by_key`: folds one more value of a key into
/// the key's accumulator.
///
/// The contract: `fold(acc, v)` leaves in `acc` what a by-value reducer
/// `f` would return from `f(acc, v)`, and that `f` is associative and
/// commutative (the map-side combine and the reduce-side merge apply it in
/// whatever grouping the partitioning produces). `acc` is the
/// accumulator's own: the first value seen for a key is moved or cloned
/// into it, and a [`Value::Vector`] owns its elements, so an
/// implementation writes a vector accumulator in place.
pub trait Reduce: Send + Sync {
    /// Folds `v` into `acc`.
    fn fold(&self, acc: &mut Value, v: &Value);
}

/// A by-value closure is a reducer: `acc = f(acc, v)`. Scalar sums
/// allocate nothing this way; a reducer over [`Value::Vector`] should be an
/// [`InPlace`] one instead.
impl<F: Fn(&Value, &Value) -> Value + Send + Sync> Reduce for F {
    #[inline]
    fn fold(&self, acc: &mut Value, v: &Value) {
        *acc = self(acc, v);
    }
}

/// A reducer that updates its accumulator where it lies: the accumulator
/// is uniquely owned (see [`Reduce`]), so a vector sum is a loop over its
/// elements.
pub struct InPlace<F>(pub F);

impl<F: Fn(&mut Value, &Value) + Send + Sync> Reduce for InPlace<F> {
    #[inline]
    fn fold(&self, acc: &mut Value, v: &Value) {
        (self.0)(acc, v)
    }
}

/// Associative, commutative combiner for `reduce_by_key` (see [`Reduce`]).
///
/// Either form coerces from an `Arc`. The closure's parameters must be
/// annotated: there is no `Fn` signature in `dyn Reduce` for an
/// unannotated `|a, b|` to be inferred from.
///
/// ```
/// use engine::{InPlace, ReduceFn, Value};
/// use std::sync::Arc;
///
/// let by_value: ReduceFn = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
/// let in_place: ReduceFn = Arc::new(InPlace(|acc: &mut Value, v: &Value| {
///     *acc = Value::Int(acc.as_int() + v.as_int())
/// }));
/// for f in [by_value, in_place] {
///     let acc = &mut Value::Int(2);
///     f.fold(acc, &Value::Int(3));
///     assert_eq!(*acc, Value::Int(5));
/// }
/// ```
pub type ReduceFn = Arc<dyn Reduce>;

/// `acc[i] += v[i]` on a [`Value::Vector`] accumulator.
fn add_assign(acc: &mut Value, v: &[f64]) {
    match acc {
        Value::Vector(a) => {
            for (x, y) in a.iter_mut().zip(v) {
                *x += y;
            }
        }
        other => panic!("expected vector value, got {other:?}"),
    }
}

/// Element-wise sum of equal-length [`Value::Vector`]s, in place.
pub fn sum_vectors() -> ReduceFn {
    Arc::new(InPlace(|acc: &mut Value, v: &Value| {
        add_assign(acc, v.as_vector())
    }))
}

/// Sum of `Pair(Vector, Int)` accumulators — a vector sum and the count of
/// what went into it — in place.
pub fn sum_vector_counts() -> ReduceFn {
    Arc::new(InPlace(|acc: &mut Value, v: &Value| match (acc, v) {
        (Value::Pair(sum, count), Value::Pair(s, c)) => {
            add_assign(sum, s.as_vector());
            **count = Value::Int(count.as_int() + c.as_int());
        }
        other => panic!("malformed accumulator {other:?}"),
    }))
}

/// Where a generator or a flat-map puts the records it produces: the rest
/// of the task's fused pass, through the remaining narrow ops into a
/// result, a cached partition, a map-side combine or a count, with nothing
/// gathered in between.
///
/// The contract is a map's ([`MapFn`]): [`Emit::put`] hands `write` the
/// next output slot, a record the pass keeps, and `write` writes the whole
/// output over it. The slot holds the last output, buffers and all, when
/// nothing downstream keeps it, and [`Record::default`] when something
/// does. Records arrive downstream in call order. [`Emit::emit`] puts a
/// record built whole. [`Emit::reserve`] hints that about that many
/// records follow: a generator that gives its split's size once, up front,
/// caches it in one exact allocation. A `Vec<Record>` collects, for
/// running a producer outside the executor. The closure's `out` parameter
/// must be annotated, as a [`ReduceFn`]'s are.
///
/// ```
/// use engine::{Emit, FlatMapFn, GenFn, Key, Record, Value};
/// use std::sync::Arc;
///
/// // Split `part` of `parts` over 0..10, each record built whole.
/// let gen: GenFn = Arc::new(|part, parts, out: &mut dyn Emit| {
///     let (start, end) = (10 * part / parts, 10 * (part + 1) / parts);
///     out.reserve(end - start);
///     for i in start..end {
///         out.emit(Record::new(Key::Int(i as i64), Value::vector(vec![i as f64; 2])));
///     }
/// });
/// // Each point twice, re-keyed and scaled in the slot's own vector.
/// let twice: FlatMapFn = Arc::new(|r: &Record, out: &mut dyn Emit| {
///     let x = r.value.as_vector();
///     for k in 0..2 {
///         out.put(&mut |slot| {
///             slot.key = Key::Int(k);
///             let scaled = x.iter().map(|v| v * (2 * k + 2) as f64);
///             slot.value.vector_mut(x.len()).iter_mut().zip(scaled).for_each(|(s, v)| *s = v);
///         });
///     }
/// });
///
/// let mut points = Vec::new();
/// gen(1, 2, &mut points);
/// assert_eq!((points.len(), points.capacity()), (5, 5));
/// let mut rows = Vec::new();
/// twice(&points[0], &mut rows);
/// assert_eq!(rows[0], Record::new(Key::Int(0), Value::vector(vec![10.0; 2])));
/// assert_eq!(rows[1], Record::new(Key::Int(1), Value::vector(vec![20.0; 2])));
/// ```
pub trait Emit {
    /// Hands `write` the next output slot to write a record over, then
    /// sends that record downstream.
    fn put(&mut self, write: &mut dyn FnMut(&mut Record));
    /// Sends `rec` downstream: [`Emit::put`] of it.
    fn emit(&mut self, mut rec: Record) {
        self.put(&mut |slot| std::mem::swap(slot, &mut rec));
    }
    /// About `additional` more records follow.
    fn reserve(&mut self, _additional: usize) {}
}

/// Collects what a producer writes, each record into a fresh slot.
impl Emit for Vec<Record> {
    fn put(&mut self, write: &mut dyn FnMut(&mut Record)) {
        let mut rec = Record::default();
        write(&mut rec);
        self.push(rec);
    }
    fn reserve(&mut self, additional: usize) {
        reserve_records(self, additional);
    }
}

/// `Vec::reserve` that sizes an empty vector exactly — a split its
/// generator sized up front is then one allocation with no slack — and
/// grows a started one geometrically, so a producer that hints per input
/// record does not reallocate per hint.
pub(crate) fn reserve_records(records: &mut Vec<Record>, additional: usize) {
    if records.is_empty() {
        records.reserve_exact(additional);
    } else {
        records.reserve(additional);
    }
}

/// Deterministic per-partition generator for block-backed sources:
/// `gen(partition_index, num_partitions, out)` produces that partition's
/// records into `out`, in order (see [`Emit`]).
pub type GenFn = Arc<dyn Fn(usize, usize, &mut dyn Emit) + Send + Sync>;

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

    #[test]
    fn wide_classification_matches_spark() {
        let map = OpKind::Map {
            f: Arc::new(|r: &Record, out: &mut Record| *out = r.clone()),
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
            f: Arc::new(|r: &Record, out: &mut Record| *out = r.clone())
        }
        .preserves_partitioning());
        assert!(!OpKind::Map {
            f: Arc::new(|r: &Record, out: &mut Record| *out = r.clone())
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
                f: Arc::new(|r: &Record, out: &mut Record| *out = r.clone()),
            }
            .discriminant(),
            OpKind::MapValues {
                f: Arc::new(|r: &Record, out: &mut Record| *out = r.clone()),
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
