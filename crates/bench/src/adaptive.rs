//! Adaptive-execution comparison: the skewed aggregation (`skewagg`)
//! workload run `--adaptive off` vs `--adaptive on`.
//!
//! Every figure here is virtual-clock deterministic — the splitter keys
//! on data-plane byte tables — so `repro fig_adaptive` regenerates the
//! committed `results/BENCH_adaptive.json` verbatim and CI's doc-sync
//! step (`repro all`, then `git diff --exit-code -- results/`) pins it.
//! The floors the figure is read by are asserted by this module's unit
//! test: the adaptive run at least [`ADAPTIVE_SPEEDUP_FLOOR`]x faster
//! than the static run, the two modes' sorted output tables
//! bit-identical, the hot range partition split, and both rounds of the
//! hash aggregation split in-job. Host wall-clock is measured by
//! `benchmark/` alone.

use crate::DATA_SCALE;
use engine::{EngineOptions, PartitionerSpec, WorkloadConf};
use serde::Serialize;
use simcluster::{ClusterSpec, NodeSpec};
use workloads::{SkewAgg, SkewAggConfig, SkewAggResult};

/// Floor on the end-to-end `--adaptive on` vs `off` speedup for the
/// skewed aggregation.
pub const ADAPTIVE_SPEEDUP_FLOOR: f64 = 1.3;

/// Per-job virtual wall time under both modes.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveJobRow {
    /// Job label (`hot-agg`, `freq-agg` round one / two).
    pub job: String,
    /// Virtual seconds with the static plan.
    pub time_static: f64,
    /// Virtual seconds with adaptive execution.
    pub time_adaptive: f64,
    /// Reduce-stage virtual task count with the static plan.
    pub tasks_static: usize,
    /// Reduce-stage virtual task count with adaptive execution (exceeds
    /// the physical partition count when the splitter fired).
    pub tasks_adaptive: usize,
    /// Reduce-stage partitioner under the static plan, e.g. `range(16)`.
    pub scheme_static: String,
    /// Reduce-stage partitioner under adaptive execution.
    pub scheme_adaptive: String,
}

/// The adaptive-vs-static comparison (what `BENCH_adaptive.json` holds).
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveReport {
    /// One row per job, in execution order.
    pub jobs: Vec<AdaptiveJobRow>,
    /// End-of-run virtual clock with the static plan.
    pub total_static: f64,
    /// End-of-run virtual clock with adaptive execution.
    pub total_adaptive: f64,
    /// `total_static / total_adaptive`.
    pub speedup: f64,
    /// Whether both modes produced bit-identical sorted output tables.
    pub tables_equal: bool,
    /// FNV-1a fingerprint over both sorted output tables (shared by the
    /// two modes whenever `tables_equal`).
    pub fingerprint: u64,
}

impl AdaptiveReport {
    /// Renders the report as indented JSON (what gets committed).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

fn scheme_cell(scheme: Option<PartitionerSpec>) -> String {
    match scheme {
        Some(s) => format!("{:?}({})", s.kind, s.partitions).to_lowercase(),
        None => "-".to_string(),
    }
}

/// Three 4-core 2 GHz workers on 1 GbE, with every byte-denominated
/// capacity shrunk by [`DATA_SCALE`] — the same dimensional-consistency
/// argument as `paper_engine`: the scaled-down tables must meet
/// correspondingly scaled-down bandwidths or byte skew becomes
/// unrealistically cheap relative to compute.
fn bench_cluster() -> ClusterSpec {
    let mut cluster = ClusterSpec::new(
        (0..3)
            .map(|i| NodeSpec::new(&format!("n{i}"), 4, 2.0, 40, 1.0))
            .collect(),
    );
    let scale = DATA_SCALE as f64;
    for node in &mut cluster.nodes {
        node.memory_bytes /= DATA_SCALE;
        node.net_bandwidth /= scale;
        node.disk_bandwidth /= scale;
    }
    cluster.cache_bandwidth /= scale;
    cluster
}

fn run(adaptive: bool) -> SkewAggResult {
    let opts = EngineOptions {
        cluster: bench_cluster(),
        default_parallelism: SkewAggConfig::paper().partitions,
        workers: 4,
        adaptive,
        ..EngineOptions::default()
    };
    SkewAgg::new(SkewAggConfig::paper()).execute(&opts, &WorkloadConf::new(), 1.0)
}

/// Runs the comparison. Deterministic: virtual-clock figures only.
pub fn measure_adaptive() -> AdaptiveReport {
    let stat = run(false);
    let adap = run(true);

    let mut jobs = Vec::new();
    for (js, ja) in stat.ctx.jobs().iter().zip(adap.ctx.jobs()) {
        assert_eq!(js.name, ja.name, "modes must run the same job sequence");
        // Each skewagg job is a source + reduce pair; index the reduce.
        let (rs, ra) = (&js.stages[1], &ja.stages[1]);
        jobs.push(AdaptiveJobRow {
            job: js.name.clone(),
            time_static: js.end - js.start,
            time_adaptive: ja.end - ja.start,
            tasks_static: rs.num_tasks,
            tasks_adaptive: ra.num_tasks,
            scheme_static: scheme_cell(rs.scheme),
            scheme_adaptive: scheme_cell(ra.scheme),
        });
    }

    let total_static = stat.ctx.clock();
    let total_adaptive = adap.ctx.clock();
    let tables_equal = stat.hot_table == adap.hot_table
        && stat.freq_table == adap.freq_table
        && stat.fingerprint() == adap.fingerprint();
    AdaptiveReport {
        jobs,
        total_static,
        total_adaptive,
        speedup: total_static / total_adaptive,
        tables_equal,
        fingerprint: adap.fingerprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_clears_its_floors_with_identical_tables() {
        let rep = measure_adaptive();
        assert!(
            rep.speedup >= ADAPTIVE_SPEEDUP_FLOOR,
            "adaptive {:.2}x over static, floor {ADAPTIVE_SPEEDUP_FLOOR}x",
            rep.speedup
        );
        assert!(rep.tables_equal, "sorted output tables diverged");
        // hot-agg: the byte-hot range partition splits into sub-tasks;
        // freq-agg, both rounds: so does the count-hot hash partition.
        assert_eq!(rep.jobs.len(), 3);
        for job in &rep.jobs {
            assert!(
                job.tasks_adaptive > job.tasks_static,
                "{}: no split: {} virtual tasks over {} partitions",
                job.job,
                job.tasks_adaptive,
                job.tasks_static
            );
            assert_eq!(job.scheme_adaptive, job.scheme_static, "{}", job.job);
        }
    }
}
