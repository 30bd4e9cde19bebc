//! A mini in-memory DAG analytics engine — the Spark-shaped substrate the
//! CHOPPER reproduction runs on.
//!
//! The engine reproduces the surfaces CHOPPER (CLUSTER 2016) needs from
//! Spark:
//!
//! * **RDD lineage with narrow/wide dependencies** ([`rdd`], [`ops`]) —
//!   stages are cut at shuffle boundaries exactly as in Spark's
//!   `DAGScheduler` ([`stage`]).
//! * **Hash and range partitioners** ([`partitioner`]) with sampled range
//!   bounds, plus skew measurement.
//! * **A real shuffle** ([`shuffle`]) — map-side combine, bucketed map
//!   outputs, reduce-side merges — whose byte volumes are measured from
//!   actual data, not modeled.
//! * **Per-stage dynamic partitioning configuration** ([`config`]) — the
//!   framework hook the paper adds to Spark: a `(signature, partitioner,
//!   partitions)` table consulted at planning time, plus repartition
//!   insertion.
//! * **Execution** ([`exec`]) — task data computed for real on host
//!   threads; task *timing* simulated on a heterogeneous virtual cluster
//!   (`simcluster`), including co-partition-aware scheduling.
//! * **Metrics** ([`metrics`]) — the per-stage observations CHOPPER's
//!   statistics collector consumes.
//!
//! ```
//! use engine::{Context, EngineOptions, Record, Key, Value};
//! use std::sync::Arc;
//!
//! let mut ctx = Context::new(EngineOptions {
//!     cluster: simcluster::uniform_cluster(2, 4, 2.0),
//!     default_parallelism: 4,
//!     ..EngineOptions::default()
//! });
//! let data = (0..100).map(|i| Record::new(Key::Int(i % 5), Value::Int(1))).collect();
//! let src = ctx.parallelize(data, 4, "src");
//! let counts = ctx.reduce_by_key(
//!     src,
//!     Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int())),
//!     None,
//!     1e-6,
//!     "count",
//! );
//! let out = ctx.collect(counts, "wordcount");
//! assert_eq!(out.len(), 5);
//! ```

pub mod adaptive;
pub mod batch;
pub mod config;
pub mod exec;
pub mod metrics;
pub mod ops;
pub mod partitioner;
pub mod pool;
pub mod rdd;
pub mod record;
pub mod shuffle;
pub mod stage;

pub use adaptive::{plan_splits, SplitPlan, SubRouter, HOT_SKEW_TRIGGER};
pub use batch::ColumnBatch;
pub use config::WorkloadConf;
pub use exec::{Context, EngineOptions, ReplanInput};
pub use faults::{FaultCounters, FaultPlan, NodeLoss, Straggler};
pub use memman::MemCounters;
pub use metrics::{JobMetrics, StageKind, StageMetrics};
pub use ops::{
    sum_vector_counts, sum_vectors, Emit, FilterFn, FlatMapFn, GenFn, InPlace, MapFn, OpKind,
    Reduce, ReduceFn,
};
pub use partitioner::{
    build_partitioner, measure_skew, HashPartitioner, Partitioner, PartitionerKind,
    PartitionerSpec, RangePartitioner,
};
pub use pool::WorkerPool;
pub use rdd::{Rdd, RddGraph, RddNode};
pub use record::{batch_size, Key, Record, Value};
pub use trace::{ClockFilter, TraceSink};
