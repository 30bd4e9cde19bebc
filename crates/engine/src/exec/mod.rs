//! The engine context: graph building, job execution, and the bridge to the
//! simulated cluster.
//!
//! Execution is *hybrid*: task data is computed for real (in parallel, on
//! host threads) so results, shuffle volumes, and skew are genuine; task
//! *timing* is derived on the simulated heterogeneous cluster, so stage
//! durations reflect the paper's testbed rather than the build machine.
//!
//! One module per responsibility, each naming what it may not touch:
//!
//! * `options` — [`EngineOptions`] and `validate`, the one gate for engine
//!   input. Knows no context.
//! * `context` — the [`Context`] struct, its constructor, the RDD-builder
//!   delegations, configuration, accessors, `collect` / `count`. Runs
//!   nothing itself.
//! * `job` — `run_job`, its job record, and partition-count /
//!   partitioning resolution. Sees stages only through `exec_stage`.
//! * `stage` — `exec_stage` and its phases, the shuffle table, stage
//!   metrics. Moves no record itself and no cached partition.
//! * `books` — the cache ledger (`Ledger`) and one method per movement of
//!   a cached partition; the fault plan (due events, node-loss recovery,
//!   per-task draws). Only placements, disk files and the virtual clock
//!   change here, never data.
//! * `dataplane` — what a task reads, the fused narrow chain, the shuffle
//!   write. A function of the lineage graph and a `StageInput`; no
//!   cluster, clock or ledger.

mod books;
mod context;
mod dataplane;
mod job;
mod options;
mod stage;

pub use context::Context;
pub(crate) use dataplane::{merge_runs, MergeKind, PARTITION_COST};
pub use options::{EngineOptions, ReplanInput};

/// What the unit tests of every module here build their jobs from.
#[cfg(test)]
mod fixture {
    use super::EngineOptions;
    use crate::ops::ReduceFn;
    use crate::record::{Key, Record, Value};
    use simcluster::uniform_cluster;
    use std::sync::Arc;

    pub(super) fn test_options() -> EngineOptions {
        EngineOptions {
            cluster: uniform_cluster(3, 4, 2.0),
            default_parallelism: 6,
            workers: 2,
            ..EngineOptions::default()
        }
    }

    pub(super) fn sum() -> ReduceFn {
        Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
    }

    pub(super) fn sorted(mut records: Vec<Record>) -> Vec<Record> {
        records.sort_by(|a, b| {
            a.key
                .cmp(&b.key)
                .then_with(|| format!("{:?}", a.value).cmp(&format!("{:?}", b.value)))
        });
        records
    }

    pub(super) fn word_records() -> Vec<Record> {
        (0..200)
            .map(|i| Record::new(Key::Int(i % 10), Value::Int(1)))
            .collect()
    }
}
