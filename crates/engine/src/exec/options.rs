//! Engine construction options and the one gate that checks them.

use crate::pool::WorkerPool;
use faults::FaultPlan;
use simcluster::ClusterSpec;
use std::sync::Arc;
use trace::TraceSink;

/// Engine construction options.
#[derive(Clone)]
pub struct EngineOptions {
    /// The simulated cluster to run on.
    pub cluster: ClusterSpec,
    /// Default task parallelism when nothing else decides (the paper's
    /// experiments use 300).
    pub default_parallelism: usize,
    /// CHOPPER's co-partition-aware scheduling: anchor same-scheme
    /// partitions to the same nodes and prefer data-heavy nodes for reduce
    /// tasks (Section III-C). Off = vanilla Spark placement.
    pub copartition_scheduling: bool,
    /// Host threads used for real data computation.
    pub workers: usize,
    /// Block size of the backing store.
    pub block_size: u64,
    /// Driver link bandwidth (bytes/s) for result collection (the paper's
    /// master sits on the 1 GbE segment).
    pub driver_bandwidth: f64,
    /// Execution-trace sink. Disabled by default; when enabled, stage
    /// spans, task timelines, shuffle counters, and pool scheduling
    /// counters are recorded. Tracing only observes — simulated timings
    /// are bit-identical with the sink on or off.
    pub trace: TraceSink,
    /// Per-executor unified memory budget in bytes. `None` (the default)
    /// is the unbounded case: the memory manager books every cached
    /// partition all the same, but no node is ever over its limit, so
    /// nothing is evicted or spilled. `Some(b)` bounds each node's cached
    /// data + task working sets at `b` bytes.
    pub executor_mem: Option<u64>,
    /// No effect. The engine has one executor; this field once selected
    /// between two and is kept only for the frozen `benchmark/` until
    /// ROADMAP item 4a. Nothing reads it.
    pub pipeline: bool,
    /// Deterministic fault-injection plan. `None` (the default) runs
    /// fault-free — the recovery hooks cost nothing. `Some(plan)` injects
    /// the plan's task failures, node losses, stragglers, and
    /// shuffle-chunk corruption, and enables the recovery machinery:
    /// bounded task retry with exponential backoff, lineage recomputation
    /// of lost shuffle map outputs, replica re-homing of cached
    /// partitions, and scheduler blacklisting of lost nodes. Faults
    /// perturb only the *simulated* side (timings, placements, the
    /// virtual clock); results and metrics byte tables stay bit-identical
    /// to the fault-free run.
    pub faults: Option<FaultPlan>,
    /// No effect. The shuffle has one record layout; this field once
    /// selected a second and is kept only for the frozen `benchmark/`
    /// until ROADMAP item 4a. Nothing reads it.
    pub batch: bool,
    /// Host compute pool to share with other contexts. `None` (the
    /// default) builds a private pool of `workers` lanes. The job server
    /// sets this so every tenant's data plane runs on one pool: dispatches
    /// serialize at epoch granularity inside [`WorkerPool`], and each
    /// context's [`crate::Context::slot_cap_handle`] bounds how many lanes its
    /// epochs may occupy. Purely a host-side concern — virtual timings and
    /// results are bit-identical shared or not.
    pub shared_pool: Option<Arc<WorkerPool>>,
    /// No effect. The engine never calls this hook, and no
    /// [`ReplanInput`] to call it with exists; it once re-planned between
    /// jobs and is kept only for the frozen `benchmark/` until ROADMAP
    /// item 4a. Nothing reads it.
    pub replan: Option<ReplanHook>,
}

/// The type of the no-effect [`EngineOptions::replan`] field.
type ReplanHook = Arc<dyn Fn(&ReplanInput) -> Option<crate::WorkloadConf> + Send + Sync>;

/// No effect: uninhabited, so a [`EngineOptions::replan`] hook can never
/// be called. Kept for the frozen `benchmark/` until ROADMAP item 4a.
#[derive(Debug, Clone)]
pub enum ReplanInput {}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            cluster: simcluster::paper_cluster(),
            default_parallelism: 300,
            copartition_scheduling: false,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            block_size: 128 * 1024 * 1024,
            driver_bandwidth: 1e9 / 8.0,
            trace: TraceSink::disabled(),
            executor_mem: None,
            pipeline: true,
            faults: None,
            batch: true,
            shared_pool: None,
            replan: None,
        }
    }
}

impl EngineOptions {
    /// The per-task execution-memory budget implied by `executor_mem`:
    /// the tightest node's budget split across its cores (every core may
    /// host a task concurrently). `None` without a budget.
    pub fn per_task_mem_budget(&self) -> Option<u64> {
        let mem = self.executor_mem?;
        let max_cores = self
            .cluster
            .nodes
            .iter()
            .map(|n| n.cores)
            .max()
            .unwrap_or(1)
            .max(1);
        Some(mem / max_cores as u64)
    }

    /// The one gate for engine input: every value the simulator, the block
    /// store or a partitioner would otherwise assert on is rejected here,
    /// with a message naming the offending field.
    /// [`crate::Context::new`] panics on an invalid set; the CLI calls this at
    /// parse time so the user gets the message instead of a silent
    /// fallback.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |node: Option<usize>, field: &str, value: f64| {
            if value.is_finite() && value > 0.0 {
                return Ok(());
            }
            let of = node.map_or(String::new(), |i| format!("cluster.nodes[{i}]."));
            Err(format!(
                "{of}{field} is {value} — must be positive and finite"
            ))
        };
        if self.cluster.nodes.is_empty() {
            return Err("cluster.nodes is empty — a cluster needs at least one node".into());
        }
        for (i, node) in self.cluster.nodes.iter().enumerate() {
            for (field, value) in [
                ("cores", node.cores as f64),
                ("speed", node.speed),
                ("net_bandwidth", node.net_bandwidth),
                ("disk_bandwidth", node.disk_bandwidth),
            ] {
                positive(Some(i), field, value)?;
            }
        }
        positive(None, "default_parallelism", self.default_parallelism as f64)?;
        positive(None, "block_size", self.block_size as f64)?;
        positive(None, "driver_bandwidth", self.driver_bandwidth)?;
        let (topology, nodes) = (self.cluster.topology, self.cluster.num_nodes());
        if !topology.covers(nodes) {
            return Err(format!(
                "topology {topology} has room for fewer hosts than the cluster's \
                 {nodes} nodes — grow the rack grid or shrink the cluster"
            ));
        }
        if let Some(plan) = &self.faults {
            plan.validate(self.cluster.num_nodes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixture::test_options;
    use super::EngineOptions;
    use faults::{FaultPlan, NodeLoss};

    #[test]
    fn every_degenerate_field_is_rejected_by_name() {
        assert_eq!(test_options().validate(), Ok(()));
        type Break = fn(&mut EngineOptions);
        let cases: [(&str, Break); 12] = [
            ("cluster.nodes is empty", |o| o.cluster.nodes.clear()),
            ("cluster.nodes[1].cores is 0", |o| {
                o.cluster.nodes[1].cores = 0
            }),
            ("cluster.nodes[0].speed is 0", |o| {
                o.cluster.nodes[0].speed = 0.0
            }),
            ("cluster.nodes[2].speed is NaN", |o| {
                o.cluster.nodes[2].speed = f64::NAN
            }),
            ("cluster.nodes[0].speed is -1", |o| {
                o.cluster.nodes[0].speed = -1.0
            }),
            ("cluster.nodes[1].net_bandwidth is inf", |o| {
                o.cluster.nodes[1].net_bandwidth = f64::INFINITY
            }),
            ("cluster.nodes[2].disk_bandwidth is 0", |o| {
                o.cluster.nodes[2].disk_bandwidth = 0.0
            }),
            ("default_parallelism is 0", |o| o.default_parallelism = 0),
            ("block_size is 0", |o| o.block_size = 0),
            ("driver_bandwidth is 0", |o| o.driver_bandwidth = 0.0),
            ("driver_bandwidth is NaN", |o| o.driver_bandwidth = f64::NAN),
            ("driver_bandwidth is -125000000", |o| {
                o.driver_bandwidth = -1e9 / 8.0
            }),
        ];
        for (names, break_it) in cases {
            let mut opts = test_options();
            break_it(&mut opts);
            let err = opts.validate().expect_err(names);
            assert!(err.starts_with(names), "{names}: got {err}");
        }
    }

    /// `batch`, `pipeline` and `replan` have no effect because nothing
    /// reads them: outside this file no engine source's code (comments
    /// aside) names any of them.
    #[test]
    fn nothing_reads_the_fields_that_have_no_effect() {
        fn sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
            for entry in std::fs::read_dir(dir).expect("a source directory") {
                let path = entry.expect("a directory entry").path();
                if path.is_dir() {
                    sources(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    out.push(path);
                }
            }
        }
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut files = Vec::new();
        sources(&src, &mut files);
        assert!(
            files.len() > 10,
            "found {} files under {src:?}",
            files.len()
        );
        let reads = [
            concat!(".", "batch"),
            concat!(".", "pipeline"),
            concat!(".", "replan"),
        ];
        for file in files.iter().filter(|f| !f.ends_with("exec/options.rs")) {
            let text = std::fs::read_to_string(file).expect("a readable source");
            for (n, line) in text.lines().enumerate() {
                let code = line.find("//").map_or(line, |at| &line[..at]);
                let named = reads.iter().any(|field| {
                    code.match_indices(field).any(|(at, _)| {
                        let next = code[at + field.len()..].chars().next();
                        !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
                    })
                });
                assert!(!named, "{}:{}: {line}", file.display(), n + 1);
            }
        }
    }

    #[test]
    fn a_plan_naming_a_node_the_cluster_lacks_is_rejected() {
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            node_loss: vec![NodeLoss { node: 9, at: 1.0 }],
            ..FaultPlan::default()
        });
        assert!(opts.validate().is_err(), "out-of-range node must fail");
    }

    #[test]
    fn undersized_topology_grid_is_rejected() {
        // `with_topology` asserts the grid covers the cluster; a struct
        // literal or a deserialized spec gets here without that check.
        let mut opts = test_options();
        opts.cluster.topology = simcluster::Topology::Rack {
            racks: 1,
            hosts: 2,
            oversub: 1.0,
        };
        let err = opts.validate().unwrap_err();
        assert!(
            err.contains("rack:1x2:1") && err.contains("3 nodes"),
            "got: {err}"
        );
        opts.cluster.topology = simcluster::Topology::Rack {
            racks: 2,
            hosts: 2,
            oversub: 1.0,
        };
        assert_eq!(opts.validate(), Ok(()));
    }
}
