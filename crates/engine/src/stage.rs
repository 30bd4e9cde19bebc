//! Job planning: cutting the RDD lineage into stages at shuffle boundaries.
//!
//! This mirrors Spark's `DAGScheduler::newResultStage` /
//! `newShuffleMapStage` walk (paper Fig. 1): narrow chains pipeline into a
//! single stage; each wide dependency creates a map stage that writes
//! shuffle output bucketed by the consumer's *resolved* scheme. Scheme
//! resolution consults the CHOPPER configuration file, which is exactly the
//! dynamic-partitioning hook the paper adds to Spark.
//!
//! A join/co-group consumes two sides. A side whose RDD is already
//! materialized (cached) under the join's scheme becomes a *narrow* side —
//! partition `i` is fetched directly from wherever it lives instead of
//! being re-shuffled. This is the dependency structure CHOPPER's
//! co-partition-aware scheduling exploits (Section III-C).

use crate::config::WorkloadConf;
use crate::ops::OpKind;
use crate::partitioner::PartitionerSpec;
use crate::rdd::{Rdd, RddGraph};
use std::collections::HashMap;

/// How a join side gets its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideDep {
    /// Via shuffle `idx` (index into [`Plan::shuffles`]).
    Shuffle(usize),
    /// Directly from the materialized partitions of this RDD.
    Narrow(Rdd),
}

/// What a stage materializes first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageRoot {
    /// Input source partitions.
    Source(Rdd),
    /// Reduce side of a single-parent wide op.
    ShuffleRead {
        /// The wide RDD being materialized.
        wide: Rdd,
        /// Index into [`Plan::shuffles`].
        shuffle: usize,
    },
    /// Join / co-group of two sides.
    JoinRead {
        /// The wide RDD being materialized.
        wide: Rdd,
        /// Left input.
        left: SideDep,
        /// Right input.
        right: SideDep,
    },
    /// A cached RDD's partitions, already materialized by an earlier job.
    CachedRead(Rdd),
}

impl StageRoot {
    /// The shuffles this root reads, one item per read: a self-join yields
    /// its one shuffle twice. Allocates nothing.
    pub fn shuffle_reads(&self) -> impl Iterator<Item = usize> {
        let shuffle = |dep: &SideDep| match dep {
            SideDep::Shuffle(s) => Some(*s),
            SideDep::Narrow(_) => None,
        };
        let (first, second) = match self {
            StageRoot::ShuffleRead { shuffle, .. } => (Some(*shuffle), None),
            StageRoot::JoinRead { left, right, .. } => (shuffle(left), shuffle(right)),
            StageRoot::Source(_) | StageRoot::CachedRead(_) => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// Where a stage's terminal records go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutput {
    /// Bucketed into shuffle `idx` for a downstream wide op.
    ShuffleWrite(usize),
    /// Returned to the driver (final stage of the job).
    Result,
}

/// One shuffle: the boundary between a map stage and its consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleSpec {
    /// The wide RDD this shuffle feeds.
    pub for_wide: Rdd,
    /// Resolved partitioning scheme of the consumer.
    pub scheme: PartitionerSpec,
    /// Map-side combine (true for reduce-by-key).
    pub combine: bool,
    /// Index of the producing map stage in [`Plan::stages`].
    pub producer_stage: usize,
}

/// One planned stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStage {
    /// Root materialization.
    pub root: StageRoot,
    /// Narrow ops applied after the root, in order. The last element is the
    /// stage's terminal RDD; when empty the root RDD is terminal.
    pub chain: Vec<Rdd>,
    /// Terminal RDD (whose records the stage produces).
    pub terminal: Rdd,
    /// Output destination.
    pub output: StageOutput,
}

impl PlanStage {
    /// The stage's root RDD (the one the root materializes).
    pub fn root_rdd(&self) -> Rdd {
        match self.root {
            StageRoot::Source(r) | StageRoot::CachedRead(r) => r,
            StageRoot::ShuffleRead { wide, .. } | StageRoot::JoinRead { wide, .. } => wide,
        }
    }
}

/// Information the planner needs about already-materialized (cached) RDDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaterializedInfo {
    /// Number of materialized partitions.
    pub partitions: usize,
    /// Partitioning under which the data was materialized, if known.
    pub partitioning: Option<PartitionerSpec>,
}

/// An executable job plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Stages in execution (topological) order; the last is the result
    /// stage.
    pub stages: Vec<PlanStage>,
    /// Shuffles connecting them.
    pub shuffles: Vec<ShuffleSpec>,
    /// Resolved schemes of every wide RDD in the job.
    pub schemes: HashMap<Rdd, PartitionerSpec>,
    /// Effective default parallelism used for resolution.
    pub default_parallelism: usize,
}

impl Plan {
    /// How many times the plan reads shuffle `idx`, over all stages and
    /// join sides. More than one means the shuffle's buckets are shared.
    pub fn shuffle_reads(&self, idx: usize) -> usize {
        self.stages
            .iter()
            .flat_map(|s| s.root.shuffle_reads())
            .filter(|&s| s == idx)
            .count()
    }
}

struct Planner<'a> {
    g: &'a RddGraph,
    conf: &'a WorkloadConf,
    default_parallelism: usize,
    materialized: &'a HashMap<Rdd, MaterializedInfo>,
    stages: Vec<PlanStage>,
    shuffles: Vec<ShuffleSpec>,
    schemes: HashMap<Rdd, PartitionerSpec>,
    map_stage_memo: HashMap<(Rdd, Rdd), usize>,
}

/// Plans the job computing `final_rdd`.
pub fn plan_job(
    g: &RddGraph,
    final_rdd: Rdd,
    conf: &WorkloadConf,
    default_parallelism: usize,
    materialized: &HashMap<Rdd, MaterializedInfo>,
) -> Plan {
    let effective_default = conf.default_parallelism.unwrap_or(default_parallelism);
    let mut p = Planner {
        g,
        conf,
        default_parallelism: effective_default,
        materialized,
        stages: Vec::new(),
        shuffles: Vec::new(),
        schemes: HashMap::new(),
        map_stage_memo: HashMap::new(),
    };
    let (root, chain) = p.build_chain(final_rdd);
    let terminal = *chain.last().unwrap_or(&final_rdd);
    debug_assert_eq!(terminal, final_rdd);
    p.stages.push(PlanStage {
        root,
        chain,
        terminal: final_rdd,
        output: StageOutput::Result,
    });
    Plan {
        stages: p.stages,
        shuffles: p.shuffles,
        schemes: p.schemes,
        default_parallelism: effective_default,
    }
}

impl<'a> Planner<'a> {
    /// Resolves the effective scheme of a wide RDD: user-fixed schemes win,
    /// then the CHOPPER configuration (by stage signature), then the
    /// default parallelism with a hash partitioner (Spark's default).
    fn resolve_scheme(&mut self, wide: Rdd) -> PartitionerSpec {
        if let Some(&s) = self.schemes.get(&wide) {
            return s;
        }
        let node = self.g.node(wide);
        let conf_entry = self.conf.stage_scheme(node.signature);
        let scheme = if node.user_fixed && !(self.conf.override_user_fixed && conf_entry.is_some())
        {
            node.op
                .explicit_scheme()
                .expect("user-fixed wide ops carry a scheme")
        } else if let Some(s) = conf_entry {
            s
        } else if let Some(s) = node.op.explicit_scheme() {
            s
        } else {
            PartitionerSpec::hash(self.default_parallelism)
        };
        self.schemes.insert(wide, scheme);
        scheme
    }

    /// Walks the narrow chain up from `target`, returning the stage root
    /// and the chain of narrow ops whose last element is `target` (empty
    /// when `target` is itself the root).
    fn build_chain(&mut self, target: Rdd) -> (StageRoot, Vec<Rdd>) {
        let mut chain = Vec::new();
        let mut cur = target;
        let root = loop {
            if self.materialized.contains_key(&cur) {
                break StageRoot::CachedRead(cur);
            }
            let node = self.g.node(cur);
            match &node.op {
                OpKind::SourceCollection { .. } | OpKind::SourceBlocks { .. } => {
                    break StageRoot::Source(cur);
                }
                OpKind::Join { .. } | OpKind::CoGroup { .. } => {
                    let scheme = self.resolve_scheme(cur);
                    let parents = node.parents.clone();
                    assert_eq!(parents.len(), 2, "join/co-group takes two parents");
                    let left = self.side_dep(parents[0], cur, scheme);
                    let right = self.side_dep(parents[1], cur, scheme);
                    break StageRoot::JoinRead {
                        wide: cur,
                        left,
                        right,
                    };
                }
                op if op.is_wide() => {
                    let _ = self.resolve_scheme(cur);
                    let parent = node.parents[0];
                    let shuffle = self.map_stage(parent, cur);
                    break StageRoot::ShuffleRead { wide: cur, shuffle };
                }
                _ => {
                    chain.push(cur);
                    cur = node.parents[0];
                }
            }
        };
        chain.reverse();
        (root, chain)
    }

    /// Plans how one side of a join arrives: narrow when the parent is
    /// already materialized under the join's scheme, otherwise via a new
    /// shuffle.
    fn side_dep(&mut self, parent: Rdd, wide: Rdd, scheme: PartitionerSpec) -> SideDep {
        if let Some(info) = self.materialized.get(&parent) {
            if info.partitioning == Some(scheme) {
                return SideDep::Narrow(parent);
            }
        }
        SideDep::Shuffle(self.map_stage(parent, wide))
    }

    /// Creates (or reuses) the map stage producing `parent`'s records
    /// bucketed for `wide`, returning the shuffle index.
    fn map_stage(&mut self, parent: Rdd, wide: Rdd) -> usize {
        if let Some(&s) = self.map_stage_memo.get(&(parent, wide)) {
            return s;
        }
        let scheme = self.resolve_scheme(wide);
        let combine = matches!(self.g.node(wide).op, OpKind::ReduceByKey { .. });
        let (root, chain) = self.build_chain(parent);
        let shuffle_idx = self.shuffles.len();
        // Reserve the shuffle slot before recursing is unnecessary — the
        // chain above is already built; push the stage, then the spec.
        let stage_idx = self.stages.len();
        self.stages.push(PlanStage {
            root,
            chain,
            terminal: parent,
            output: StageOutput::ShuffleWrite(shuffle_idx),
        });
        self.shuffles.push(ShuffleSpec {
            for_wide: wide,
            scheme,
            combine,
            producer_stage: stage_idx,
        });
        self.map_stage_memo.insert((parent, wide), shuffle_idx);
        shuffle_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Key, Record, Value};
    use std::sync::Arc;

    fn records(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(Key::Int(i % 4), Value::Int(i)))
            .collect()
    }

    fn sum() -> crate::ops::ReduceFn {
        Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
    }

    fn ident() -> crate::ops::MapFn {
        Arc::new(|r: &Record| r.clone())
    }

    fn no_mat() -> HashMap<Rdd, MaterializedInfo> {
        HashMap::new()
    }

    #[test]
    fn narrow_chain_is_single_stage() {
        let mut g = RddGraph::new();
        let src = g.parallelize(records(8), 2, "src");
        let m = g.map(src, ident(), 1.0, "m");
        let f = g.filter(m, Arc::new(|_| true), 1.0, "f");
        let plan = plan_job(&g, f, &WorkloadConf::new(), 4, &no_mat());
        assert_eq!(plan.stages.len(), 1);
        let s = &plan.stages[0];
        assert_eq!(s.root, StageRoot::Source(src));
        assert_eq!(s.chain, vec![m, f]);
        assert_eq!(s.terminal, f);
        assert_eq!(s.output, StageOutput::Result);
    }

    #[test]
    fn wide_op_cuts_two_stages() {
        let mut g = RddGraph::new();
        let src = g.parallelize(records(8), 2, "src");
        let r = g.reduce_by_key(src, sum(), None, 1.0, "r");
        let plan = plan_job(&g, r, &WorkloadConf::new(), 5, &no_mat());
        assert_eq!(plan.stages.len(), 2);
        assert_eq!(plan.stages[0].output, StageOutput::ShuffleWrite(0));
        assert_eq!(plan.stages[0].terminal, src);
        assert_eq!(
            plan.stages[1].root,
            StageRoot::ShuffleRead {
                wide: r,
                shuffle: 0
            }
        );
        // Default scheme: hash with the default parallelism.
        assert_eq!(plan.schemes[&r], PartitionerSpec::hash(5));
        assert!(plan.shuffles[0].combine, "reduce-by-key combines map side");
    }

    #[test]
    fn config_overrides_default_scheme() {
        let mut g = RddGraph::new();
        let src = g.parallelize(records(8), 2, "src");
        let r = g.reduce_by_key(src, sum(), None, 1.0, "r");
        let mut conf = WorkloadConf::new();
        conf.set_stage(g.node(r).signature, PartitionerSpec::range(17));
        let plan = plan_job(&g, r, &conf, 5, &no_mat());
        assert_eq!(plan.schemes[&r], PartitionerSpec::range(17));
    }

    #[test]
    fn user_fixed_scheme_beats_config() {
        let mut g = RddGraph::new();
        let src = g.parallelize(records(8), 2, "src");
        let r = g.reduce_by_key(src, sum(), Some(PartitionerSpec::hash(9)), 1.0, "r");
        let mut conf = WorkloadConf::new();
        conf.set_stage(g.node(r).signature, PartitionerSpec::range(17));
        let plan = plan_job(&g, r, &conf, 5, &no_mat());
        assert_eq!(
            plan.schemes[&r],
            PartitionerSpec::hash(9),
            "user pin left intact"
        );
    }

    #[test]
    fn config_default_parallelism_applies() {
        let mut g = RddGraph::new();
        let src = g.parallelize(records(8), 2, "src");
        let r = g.reduce_by_key(src, sum(), None, 1.0, "r");
        let mut conf = WorkloadConf::new();
        conf.default_parallelism = Some(33);
        let plan = plan_job(&g, r, &conf, 5, &no_mat());
        assert_eq!(plan.schemes[&r], PartitionerSpec::hash(33));
        assert_eq!(plan.default_parallelism, 33);
    }

    #[test]
    fn join_produces_three_stages() {
        let mut g = RddGraph::new();
        let a = g.parallelize(records(8), 2, "a");
        let b = g.parallelize(records(8), 2, "b");
        let j = g.join(a, b, None, 1.0, "j");
        let plan = plan_job(&g, j, &WorkloadConf::new(), 4, &no_mat());
        assert_eq!(plan.stages.len(), 3, "two map stages + join stage");
        match &plan.stages[2].root {
            StageRoot::JoinRead { wide, left, right } => {
                assert_eq!(*wide, j);
                assert_eq!(*left, SideDep::Shuffle(0));
                assert_eq!(*right, SideDep::Shuffle(1));
            }
            other => panic!("expected JoinRead, got {other:?}"),
        }
        assert!(!plan.shuffles[0].combine);
    }

    #[test]
    fn cached_parent_with_matching_scheme_is_narrow_side() {
        let mut g = RddGraph::new();
        let a = g.parallelize(records(8), 2, "a");
        let ra = g.reduce_by_key(a, sum(), None, 1.0, "ra");
        let b = g.parallelize(records(8), 2, "b");
        let j = g.join(ra, b, None, 1.0, "j");
        let mut mat = HashMap::new();
        mat.insert(
            ra,
            MaterializedInfo {
                partitions: 4,
                partitioning: Some(PartitionerSpec::hash(4)),
            },
        );
        let plan = plan_job(&g, j, &WorkloadConf::new(), 4, &mat);
        // Left side narrow (materialized under hash(4) == join default),
        // right side shuffled.
        match &plan.stages.last().unwrap().root {
            StageRoot::JoinRead { left, right, .. } => {
                assert_eq!(*left, SideDep::Narrow(ra));
                assert!(matches!(right, SideDep::Shuffle(_)));
            }
            other => panic!("expected JoinRead, got {other:?}"),
        }
        assert_eq!(
            plan.stages.len(),
            2,
            "only the right side needs a map stage"
        );
    }

    #[test]
    fn cached_parent_with_mismatched_scheme_is_reshuffled() {
        let mut g = RddGraph::new();
        let a = g.parallelize(records(8), 2, "a");
        let ra = g.reduce_by_key(a, sum(), None, 1.0, "ra");
        let b = g.parallelize(records(8), 2, "b");
        let j = g.join(ra, b, None, 1.0, "j");
        let mut mat = HashMap::new();
        mat.insert(
            ra,
            MaterializedInfo {
                partitions: 9,
                partitioning: Some(PartitionerSpec::hash(9)),
            },
        );
        let plan = plan_job(&g, j, &WorkloadConf::new(), 4, &mat);
        match &plan.stages.last().unwrap().root {
            StageRoot::JoinRead { left, .. } => {
                assert!(
                    matches!(left, SideDep::Shuffle(_)),
                    "9 != 4 partitions: reshuffle"
                );
            }
            other => panic!("expected JoinRead, got {other:?}"),
        }
    }

    #[test]
    fn cached_mid_chain_rdd_truncates_lineage() {
        let mut g = RddGraph::new();
        let src = g.parallelize(records(8), 2, "src");
        let m = g.map(src, ident(), 1.0, "m");
        g.set_cached(m);
        let f = g.filter(m, Arc::new(|_| true), 1.0, "f");
        let mut mat = HashMap::new();
        mat.insert(
            m,
            MaterializedInfo {
                partitions: 2,
                partitioning: None,
            },
        );
        let plan = plan_job(&g, f, &WorkloadConf::new(), 4, &mat);
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.stages[0].root, StageRoot::CachedRead(m));
        assert_eq!(plan.stages[0].chain, vec![f]);
    }

    #[test]
    fn uncached_mid_chain_recomputes_from_source() {
        let mut g = RddGraph::new();
        let src = g.parallelize(records(8), 2, "src");
        let m = g.map(src, ident(), 1.0, "m");
        let f = g.filter(m, Arc::new(|_| true), 1.0, "f");
        let plan = plan_job(&g, f, &WorkloadConf::new(), 4, &no_mat());
        assert_eq!(plan.stages[0].root, StageRoot::Source(src));
    }

    #[test]
    fn iterative_chains_build_consistent_plans() {
        // Two structurally identical jobs resolve to the same schemes.
        let mut g = RddGraph::new();
        let src = g.parallelize(records(8), 2, "src");
        let mut conf = WorkloadConf::new();
        let mut sigs = Vec::new();
        for _ in 0..2 {
            let m = g.map(src, ident(), 1.0, "assign");
            let r = g.reduce_by_key(m, sum(), None, 1.0, "update");
            sigs.push(g.node(r).signature);
        }
        assert_eq!(sigs[0], sigs[1]);
        conf.set_stage(sigs[0], PartitionerSpec::hash(21));
        // Plan the second iteration: the single config entry re-targets it.
        let m2 = g.map(src, ident(), 1.0, "assign");
        let r2 = g.reduce_by_key(m2, sum(), None, 1.0, "update");
        let plan = plan_job(&g, r2, &conf, 4, &no_mat());
        assert_eq!(plan.schemes[&r2], PartitionerSpec::hash(21));
    }

    #[test]
    fn diamond_shares_map_stage() {
        // src → reduce r; join(r-chain-a, r-chain-b)? Simpler: join of the
        // same RDD with itself must reuse one map stage per (parent, wide).
        let mut g = RddGraph::new();
        let src = g.parallelize(records(8), 2, "src");
        let j = g.join(src, src, None, 1.0, "self-join");
        let plan = plan_job(&g, j, &WorkloadConf::new(), 4, &no_mat());
        // Both sides share the same (parent, wide) memo entry.
        assert_eq!(plan.stages.len(), 2);
        match &plan.stages[1].root {
            StageRoot::JoinRead { left, right, .. } => assert_eq!(left, right),
            other => panic!("expected JoinRead, got {other:?}"),
        }
        assert_eq!(plan.shuffle_reads(0), 2, "one shuffle, read by both sides");
        let reads = |i: usize| plan.stages[i].root.shuffle_reads().collect::<Vec<_>>();
        assert_eq!((reads(0), reads(1)), (vec![], vec![0, 0]));
    }
}
