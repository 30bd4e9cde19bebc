//! The RDD lineage graph.
//!
//! RDDs are immutable descriptors held in an arena ([`RddGraph`]); a
//! lightweight [`Rdd`] handle indexes into it. Building the graph performs
//! no computation — jobs are executed lazily by the engine when an action
//! (collect / count) is invoked, mirroring Spark.
//!
//! Every RDD carries a *structural signature*: a stable hash of its operator
//! chain (operator discriminants, user tags, and parent signatures — not
//! closure identity or RDD ids). Iterative workloads recreate structurally
//! identical RDDs every iteration; their signatures collide on purpose,
//! which is what lets CHOPPER's configuration address "all iterations of
//! this stage" with one entry (paper Section III-A).

use crate::ops::{FilterFn, FlatMapFn, GenFn, MapFn, OpKind, ReduceFn};
use crate::partitioner::PartitionerSpec;
use crate::record::{fnv1a, hash_combine, Record};
use std::sync::Arc;

/// Handle to an RDD in an [`RddGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rdd(pub usize);

/// One node of the lineage graph.
pub struct RddNode {
    /// This node's id (== its index in the arena).
    pub id: Rdd,
    /// The operator producing this RDD.
    pub op: OpKind,
    /// Parent RDDs (0 for sources, 1 for most ops, 2 for join/co-group).
    pub parents: Vec<Rdd>,
    /// User tag folded into the signature; lets structurally identical but
    /// semantically different pipelines (e.g. two different map closures)
    /// be told apart when the author wants them to be.
    pub tag: &'static str,
    /// Compute units charged per input record when this op runs.
    pub cost_per_record: f64,
    /// Whether the user asked for this RDD's partitions to be cached.
    pub cached: bool,
    /// Structural signature (stable across runs and iterations).
    pub signature: u64,
    /// True when the user pinned the scheme explicitly — CHOPPER leaves
    /// user-fixed schemes intact (paper Section III-C).
    pub user_fixed: bool,
}

/// Arena of RDD nodes plus builder methods.
#[derive(Default)]
pub struct RddGraph {
    nodes: Vec<RddNode>,
}

impl RddGraph {
    /// An empty graph.
    pub fn new() -> Self {
        RddGraph { nodes: Vec::new() }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, rdd: Rdd) -> &RddNode {
        &self.nodes[rdd.0]
    }

    /// Marks an RDD as cached (fluent helper lives on the engine context).
    pub fn set_cached(&mut self, rdd: Rdd) {
        self.nodes[rdd.0].cached = true;
    }

    /// Clears the cached mark — the driver released its handle, so the
    /// materialization no longer holds a pin reference.
    pub fn set_uncached(&mut self, rdd: Rdd) {
        self.nodes[rdd.0].cached = false;
    }

    /// Number of direct consumers of `rdd` in the graph built so far —
    /// the lineage reference count that drives LRC eviction.
    pub fn child_count(&self, rdd: Rdd) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.parents.contains(&rdd))
            .count()
    }

    fn push(&mut self, op: OpKind, parents: Vec<Rdd>, tag: &'static str, cost: f64) -> Rdd {
        let user_fixed =
            op.explicit_scheme().is_some() || matches!(&op, OpKind::SourceCollection { .. });
        let mut sig = fnv1a(op.discriminant().as_bytes());
        sig = hash_combine(sig, fnv1a(tag.as_bytes()));
        for p in &parents {
            sig = hash_combine(sig, self.nodes[p.0].signature);
        }
        let id = Rdd(self.nodes.len());
        self.nodes.push(RddNode {
            id,
            op,
            parents,
            tag,
            cost_per_record: cost,
            cached: false,
            signature: sig,
            user_fixed,
        });
        id
    }

    /// In-memory collection source split into `partitions` slices.
    pub fn parallelize(&mut self, data: Vec<Record>, partitions: usize, tag: &'static str) -> Rdd {
        assert!(partitions > 0, "need at least one partition");
        self.push(
            OpKind::SourceCollection {
                data: Arc::new(data),
                partitions,
            },
            vec![],
            tag,
            0.0,
        )
    }

    /// Block-store-backed source with an auto-tuned split count (Spark's
    /// `textFile` rule: `max(blocks, default parallelism)`, overridable by
    /// CHOPPER's config). `cost` is charged per generated record
    /// (parsing/deserialization cost).
    pub fn from_blocks(&mut self, file: &str, gen: GenFn, cost: f64, tag: &'static str) -> Rdd {
        self.push(
            OpKind::SourceBlocks {
                file: file.to_string(),
                gen,
            },
            vec![],
            tag,
            cost,
        )
    }

    /// Element-wise map.
    pub fn map(&mut self, parent: Rdd, f: MapFn, cost: f64, tag: &'static str) -> Rdd {
        self.push(OpKind::Map { f }, vec![parent], tag, cost)
    }

    /// Key-preserving map.
    pub fn map_values(&mut self, parent: Rdd, f: MapFn, cost: f64, tag: &'static str) -> Rdd {
        self.push(OpKind::MapValues { f }, vec![parent], tag, cost)
    }

    /// One-to-many map.
    pub fn flat_map(&mut self, parent: Rdd, f: FlatMapFn, cost: f64, tag: &'static str) -> Rdd {
        self.push(OpKind::FlatMap { f }, vec![parent], tag, cost)
    }

    /// Predicate filter.
    pub fn filter(&mut self, parent: Rdd, f: FilterFn, cost: f64, tag: &'static str) -> Rdd {
        self.push(OpKind::Filter { f }, vec![parent], tag, cost)
    }

    /// Deterministic Bernoulli sample keeping ~`fraction` of records.
    pub fn sample(&mut self, parent: Rdd, fraction: f64, seed: u64, tag: &'static str) -> Rdd {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        self.push(
            OpKind::Sample { fraction, seed },
            vec![parent],
            tag,
            0.05e-6,
        )
    }

    /// Shuffle + per-key reduce with map-side combine. `scheme: None` defers
    /// the partitioning decision to configuration / defaults.
    pub fn reduce_by_key(
        &mut self,
        parent: Rdd,
        f: ReduceFn,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.push(OpKind::ReduceByKey { f, scheme }, vec![parent], tag, cost)
    }

    /// Shuffle grouping values per key.
    pub fn group_by_key(
        &mut self,
        parent: Rdd,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.push(OpKind::GroupByKey { scheme }, vec![parent], tag, cost)
    }

    /// Pure repartitioning shuffle.
    pub fn repartition(
        &mut self,
        parent: Rdd,
        scheme: Option<PartitionerSpec>,
        tag: &'static str,
    ) -> Rdd {
        self.push(OpKind::Repartition { scheme }, vec![parent], tag, 0.05e-6)
    }

    /// Inner join of two keyed RDDs.
    pub fn join(
        &mut self,
        left: Rdd,
        right: Rdd,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.push(OpKind::Join { scheme }, vec![left, right], tag, cost)
    }

    /// Co-group of two keyed RDDs.
    pub fn co_group(
        &mut self,
        left: Rdd,
        right: Rdd,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.push(OpKind::CoGroup { scheme }, vec![left, right], tag, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Key, Value};

    fn sample_records(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(Key::Int(i), Value::Int(i * 2)))
            .collect()
    }

    fn identity() -> MapFn {
        Arc::new(|r: &Record| r.clone())
    }

    fn sum() -> ReduceFn {
        Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
    }

    #[test]
    fn builder_links_parents() {
        let mut g = RddGraph::new();
        let src = g.parallelize(sample_records(10), 2, "src");
        let m = g.map(src, identity(), 1.0, "m");
        let r = g.reduce_by_key(m, sum(), None, 1.0, "r");
        assert_eq!(g.node(m).parents, vec![src]);
        assert_eq!(g.node(r).parents, vec![m]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn signatures_are_structural_not_identity() {
        // Two iterations building the same chain get the same signature.
        let mut g = RddGraph::new();
        let src = g.parallelize(sample_records(10), 2, "src");
        let it1 = g.map(src, identity(), 1.0, "assign");
        let red1 = g.reduce_by_key(it1, sum(), None, 1.0, "update");
        let it2 = g.map(src, identity(), 1.0, "assign");
        let red2 = g.reduce_by_key(it2, sum(), None, 1.0, "update");
        assert_ne!(red1, red2, "distinct RDDs");
        assert_eq!(
            g.node(red1).signature,
            g.node(red2).signature,
            "same structure"
        );
    }

    #[test]
    fn tags_differentiate_signatures() {
        let mut g = RddGraph::new();
        let src = g.parallelize(sample_records(10), 2, "src");
        let a = g.map(src, identity(), 1.0, "parse");
        let b = g.map(src, identity(), 1.0, "project");
        assert_ne!(g.node(a).signature, g.node(b).signature);
    }

    #[test]
    fn explicit_scheme_marks_user_fixed() {
        let mut g = RddGraph::new();
        let src = g.parallelize(sample_records(10), 2, "src");
        let fixed = g.reduce_by_key(src, sum(), Some(PartitionerSpec::hash(7)), 1.0, "r");
        let free = g.reduce_by_key(src, sum(), None, 1.0, "r2");
        assert!(g.node(fixed).user_fixed);
        assert!(!g.node(free).user_fixed);
    }

    #[test]
    fn cache_flag_sticks() {
        let mut g = RddGraph::new();
        let src = g.parallelize(sample_records(5), 1, "src");
        assert!(!g.node(src).cached);
        g.set_cached(src);
        assert!(g.node(src).cached);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partition_source_rejected() {
        let mut g = RddGraph::new();
        let _ = g.parallelize(sample_records(5), 0, "src");
    }
}
