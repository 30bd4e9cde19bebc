//! The task cost descriptor submitted by the engine.

use crate::spec::NodeId;

/// Cost description of one task (one partition of one stage).
///
/// The engine computes the *real* data for each task on the host machine and
/// summarizes its cost here; the simulator turns the summary into virtual
/// time on the modeled cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskSpec {
    /// Abstract compute cost units. A node with `speed` s processes
    /// `s` units per second per core, so `compute_cost / speed` is the pure
    /// compute time of the task on that node.
    pub compute_cost: f64,
    /// Bytes read from local storage (HDFS block reads for input stages,
    /// local map-output reads for reduce tasks whose sources are co-located).
    pub local_read_bytes: u64,
    /// Shuffle fetches: `(source node, bytes)` per remote map output chunk.
    /// Fetches from the task's own node are counted as local reads instead
    /// by the simulator.
    pub fetches: Vec<(NodeId, u64)>,
    /// Bytes written locally (shuffle map outputs, result spills).
    pub write_bytes: u64,
    /// Peak memory footprint while running, for the Fig. 12 memory trace.
    pub memory_bytes: u64,
    /// Number of map-output chunks this task fetches (one per producer
    /// task); each costs `ClusterSpec::fetch_chunk_overhead` seconds.
    pub fetch_chunks: usize,
    /// Nodes where the task's input lives; the scheduler prefers these
    /// (Spark's locality preference).
    pub preferred_nodes: Vec<NodeId>,
    /// Hard placement pin used by CHOPPER's co-partition-aware scheduling:
    /// when set, the task runs on this node regardless of load.
    pub pinned_node: Option<NodeId>,
}

impl TaskSpec {
    /// A pure-compute task, the common case in tests.
    pub fn compute(cost: f64) -> Self {
        TaskSpec {
            compute_cost: cost,
            ..TaskSpec::default()
        }
    }

    /// Adds a locality preference.
    pub fn prefer(mut self, node: NodeId) -> Self {
        self.preferred_nodes.push(node);
        self
    }

    /// Pins the task to a node.
    pub fn pin(mut self, node: NodeId) -> Self {
        self.pinned_node = Some(node);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let t = TaskSpec::compute(5.0).prefer(1).pin(2);
        assert_eq!(t.compute_cost, 5.0);
        assert_eq!(t.preferred_nodes, vec![1]);
        assert_eq!(t.pinned_node, Some(2));
    }
}
