//! Per-stage and per-job execution metrics.
//!
//! This is the engine side of CHOPPER's *statistics collector*: every stage
//! reports its input size `D`, the scheme it ran under, its virtual
//! duration, and its shuffle volumes — the observations Eq. 1–2 models are
//! trained on — plus DAG linkage (parent stages, join flags, user-fixed
//! flags) consumed by the global optimization of Algorithm 3.

use crate::partitioner::PartitionerSpec;
use serde::Serialize;

/// What kind of root a stage executed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StageKind {
    /// Reads an input source (collection slices or storage blocks).
    Source,
    /// Reads one shuffle (reduce side of a single-parent wide op).
    Shuffle,
    /// Reads two sides (join / co-group).
    Join,
    /// Reads a cached, already-materialized RDD.
    Cached,
}

/// Metrics of one executed stage: the one per-stage record the engine
/// hands out — to [`crate::Context::jobs`] and to the stage table
/// ([`crate::Context::report`]).
#[derive(Debug, Clone, Serialize)]
pub struct StageMetrics {
    /// Global stage id, monotonically increasing per engine context —
    /// aligns with the paper's per-workload stage numbering.
    pub stage_id: usize,
    /// The job this stage belonged to.
    pub job_id: usize,
    /// Human-readable label (the terminal RDD's tag).
    pub name: String,
    /// Signature of the stage root (wide op / source) — the key CHOPPER's
    /// configuration uses to retarget this stage's scheme.
    pub root_signature: u64,
    /// Signature of the stage's terminal RDD.
    pub terminal_signature: u64,
    /// Root kind.
    pub kind: StageKind,
    /// The scheme that governed this stage's physical task count: the
    /// shuffle's for a stage that reads one, otherwise `hash(n)` over the
    /// stage's `n` splits. `partitions` is the task count before any
    /// adaptive split.
    pub scheme: Option<PartitionerSpec>,
    /// Whether CHOPPER may change this stage's scheme via configuration.
    pub configurable: bool,
    /// Whether the program pinned the scheme explicitly.
    pub user_fixed: bool,
    /// Virtual tasks simulated: `scheme.partitions`, or more when an
    /// adaptive split fired.
    pub num_tasks: usize,
    /// Records entering the stage.
    pub input_records: u64,
    /// Bytes entering the stage — the `D` of Eq. 1–2.
    pub input_bytes: u64,
    /// Records leaving the stage's terminal RDD.
    pub output_records: u64,
    /// Bytes leaving the stage's terminal RDD.
    pub output_bytes: u64,
    /// Shuffle bytes read by this stage (local + remote).
    pub shuffle_read_bytes: u64,
    /// Shuffle bytes written by this stage (map output volume).
    pub shuffle_write_bytes: u64,
    /// Bytes of this stage's reads that crossed the network.
    pub remote_read_bytes: u64,
    /// Max/mean ([`trace::skew_ratio`]) of the bytes this stage wrote per
    /// reduce partition; 1.0 when it wrote no shuffle. The data-plane
    /// statistic the in-job splitter triggers on, kept so the re-planner
    /// can retune the reading stage for the next job.
    pub write_bucket_skew: f64,
    /// Stage start (virtual seconds).
    pub start: f64,
    /// Stage end (virtual seconds).
    pub end: f64,
    /// Per-task virtual durations, in task order.
    pub task_durations: Vec<f64>,
    /// Full per-task placements (node, start, end), in task order — feeds
    /// `simcluster::render_gantt` for schedule visualization.
    pub placements: Vec<simcluster::TaskTiming>,
    /// Global stage ids this stage consumed data from.
    pub parents: Vec<usize>,
}

impl StageMetrics {
    /// Stage wall time in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The paper's per-stage "shuffle data" metric: the max of shuffle read
    /// and shuffle write (Section II-B).
    pub fn shuffle_data(&self) -> u64 {
        self.shuffle_read_bytes.max(self.shuffle_write_bytes)
    }

    /// Max/mean task-duration skew (1.0 = perfectly balanced).
    pub fn task_skew(&self) -> f64 {
        trace::skew_ratio(&self.task_durations)
    }
}

/// Metrics of one job (action).
#[derive(Debug, Clone, Serialize)]
pub struct JobMetrics {
    /// Job id, monotonically increasing per engine context.
    pub job_id: usize,
    /// Label given at the action call.
    pub name: String,
    /// Stages executed by this job (skipped/cached stages don't appear).
    pub stages: Vec<StageMetrics>,
    /// Job start (virtual seconds).
    pub start: f64,
    /// Job end (virtual seconds).
    pub end: f64,
}

impl JobMetrics {
    /// Job wall time in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(durations: Vec<f64>, read: u64, write: u64) -> StageMetrics {
        StageMetrics {
            stage_id: 0,
            job_id: 0,
            name: "t".into(),
            root_signature: 0,
            terminal_signature: 0,
            kind: StageKind::Shuffle,
            scheme: None,
            configurable: true,
            user_fixed: false,
            num_tasks: durations.len(),
            input_records: 0,
            input_bytes: 0,
            output_records: 0,
            output_bytes: 0,
            shuffle_read_bytes: read,
            shuffle_write_bytes: write,
            remote_read_bytes: 0,
            write_bucket_skew: 1.0,
            start: 1.0,
            end: 3.0,
            task_durations: durations,
            placements: vec![],
            parents: vec![],
        }
    }

    #[test]
    fn shuffle_data_is_max_of_read_write() {
        assert_eq!(stage(vec![1.0], 100, 250).shuffle_data(), 250);
        assert_eq!(stage(vec![1.0], 300, 250).shuffle_data(), 300);
    }

    #[test]
    fn skew_of_balanced_tasks_is_one() {
        assert!((stage(vec![2.0, 2.0, 2.0], 0, 0).task_skew() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skew_flags_stragglers() {
        let s = stage(vec![1.0, 1.0, 10.0], 0, 0);
        assert!(s.task_skew() > 2.0);
    }

    #[test]
    fn empty_or_zero_durations_degenerate_to_one() {
        assert_eq!(stage(vec![], 0, 0).task_skew(), 1.0);
        assert_eq!(stage(vec![0.0, 0.0], 0, 0).task_skew(), 1.0);
    }

    #[test]
    fn durations_subtract() {
        assert!((stage(vec![1.0], 0, 0).duration() - 2.0).abs() < 1e-12);
    }
}
