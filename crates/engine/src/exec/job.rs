//! Job driving: plan an action's lineage into stages, run them in order,
//! charge the driver-side result collection, and record the finished
//! job's metrics. Also the partition-count and partitioning questions a
//! plan leaves to execution time.

use super::context::Context;
use super::dataplane::TaskOut;
use super::stage::ShuffleData;
use crate::metrics::{JobMetrics, StageMetrics};
use crate::ops::OpKind;
use crate::partitioner::PartitionerSpec;
use crate::rdd::Rdd;
use crate::stage::{plan_job, Plan, PlanStage, StageRoot};

impl Context {
    /// Runs the job computing `final_rdd` and returns the outputs of its
    /// result stage's tasks — counted and sized but empty of records when
    /// the action is `count_only`.
    pub(super) fn run_job(&mut self, final_rdd: Rdd, name: &str, count_only: bool) -> Vec<TaskOut> {
        let plan = plan_job(
            &self.graph,
            final_rdd,
            &self.conf,
            self.options.default_parallelism,
            &self.ledger.infos(),
        );
        let job_id = self.jobs.len();
        let job_start = self.sim.clock();

        let mut shuffles: Vec<Option<ShuffleData>> = Vec::new();
        shuffles.resize_with(plan.shuffles.len(), || None);
        let mut stage_metrics: Vec<StageMetrics> = Vec::new();
        let mut result: Vec<TaskOut> = Vec::new();

        for idx in 0..plan.stages.len() {
            let gid = self.next_stage_id;
            self.next_stage_id += 1;
            let (metrics, result_outs) =
                self.exec_stage(&plan, idx, gid, job_id, count_only, &mut shuffles);
            stage_metrics.push(metrics);
            if let Some(outs) = result_outs {
                result = outs;
            }
        }

        // Driver-side result collection over the master's link.
        let result_bytes: u64 = result.iter().map(|o| o.out_bytes).sum();
        if result_bytes > 0 {
            self.sim
                .advance(result_bytes as f64 / self.options.driver_bandwidth);
        }

        self.jobs.push(JobMetrics {
            job_id,
            name: name.to_string(),
            stages: stage_metrics,
            start: job_start,
            end: self.sim.clock(),
        });
        result
    }

    /// Number of tasks a plan stage runs.
    pub(super) fn stage_partitions(&self, plan: &Plan, stage: &PlanStage) -> usize {
        match &stage.root {
            StageRoot::Source(rdd) => self.source_partitions(*rdd, plan.default_parallelism),
            StageRoot::ShuffleRead { shuffle, .. } => plan.shuffles[*shuffle].scheme.partitions,
            StageRoot::JoinRead { wide, .. } => plan.schemes[wide].partitions,
            StageRoot::CachedRead(rdd) => self.ledger.cached(*rdd).0.parts.len(),
        }
    }

    fn source_partitions(&self, rdd: Rdd, default_parallelism: usize) -> usize {
        let node = self.graph.node(rdd);
        match &node.op {
            OpKind::SourceCollection { partitions, .. } => *partitions,
            OpKind::SourceBlocks { file, .. } => {
                if let Some(s) = self.conf.stage_scheme(node.signature) {
                    return s.partitions;
                }
                let blocks = self
                    .store
                    .file_blocks(file)
                    .map(|b| b.len())
                    .unwrap_or(1)
                    .max(1);
                blocks.max(default_parallelism)
            }
            other => panic!("source_partitions on non-source op {other:?}"),
        }
    }

    /// Partitioning of `target` given the stage's root partitioning and the
    /// narrow chain leading to it.
    pub(super) fn partitioning_at(
        &self,
        root_part: Option<PartitionerSpec>,
        chain: &[Rdd],
        target: Rdd,
    ) -> Option<PartitionerSpec> {
        let mut cur = root_part;
        for &r in chain {
            if !self.graph.node(r).op.preserves_partitioning() {
                cur = None;
            }
            if r == target {
                return cur;
            }
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixture::{sorted, sum, test_options, word_records};
    use super::Context;
    use crate::config::WorkloadConf;
    use crate::ops::{Emit, GenFn};
    use crate::partitioner::{HashPartitioner, Partitioner, PartitionerSpec};
    use crate::record::{Key, Record, Value};
    use std::sync::Arc;

    /// A source of one record per split, keyed by the split's index.
    fn one_per_split() -> GenFn {
        Arc::new(|i, _n, out: &mut dyn Emit| {
            out.emit(Record::new(Key::Int(i as i64), Value::Int(1)))
        })
    }

    #[test]
    fn determinism_across_identical_contexts() {
        let run = || {
            let mut ctx = Context::new(test_options());
            let src = ctx.parallelize(word_records(), 4, "src");
            let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
            let out = ctx.collect(counts, "wc");
            let s = &ctx.jobs()[0].stages[0];
            (sorted(out), s.shuffle_write_bytes, ctx.clock().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_override_changes_task_count() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        let sig = ctx.signature(counts);
        let mut conf = WorkloadConf::new();
        conf.set_stage(sig, PartitionerSpec::hash(3));
        ctx.set_conf(conf);
        ctx.collect(counts, "wc");
        assert_eq!(ctx.jobs()[0].stages[1].num_tasks, 3);
    }

    #[test]
    fn text_file_source_uses_spark_split_rule() {
        let mut ctx = Context::new(test_options());
        // 3 blocks of 128 MB but default parallelism 6 → 6 splits.
        let f = ctx.text_file("in", 3 * 128 * 1024 * 1024, one_per_split(), 1e-6, "scan");
        ctx.count(f, "scan");
        assert_eq!(ctx.jobs()[0].stages[0].num_tasks, 6);
        // Reads hit the block store.
        assert!(ctx.store().counters().reads >= 3);
    }

    #[test]
    fn text_file_config_overrides_split_count() {
        let mut ctx = Context::new(test_options());
        let f = ctx.text_file("in", 256 * 1024 * 1024, one_per_split(), 1e-6, "scan");
        let mut conf = WorkloadConf::new();
        conf.set_stage(ctx.signature(f), PartitionerSpec::hash(9));
        ctx.set_conf(conf);
        ctx.count(f, "scan");
        assert_eq!(ctx.jobs()[0].stages[0].num_tasks, 9);
    }

    /// A stage's `write_bucket_skew` is `trace::skew_ratio` of the bytes
    /// it wrote per reduce partition — computed here from the records and
    /// the partitioner, apart from the shuffle table — and 1.0 for a stage
    /// that wrote none; a stage's `scheme.partitions` is its task count.
    #[test]
    fn a_stage_records_the_skew_of_the_buckets_it_wrote() {
        let mut ctx = Context::new(test_options());
        let skewed: Vec<Record> = (0..400)
            .map(|i| Record::new(Key::Int(if i % 10 < 9 { 0 } else { i }), Value::Int(i)))
            .collect();
        let left = ctx.parallelize(skewed.clone(), 4, "left");
        let right = ctx.parallelize(word_records(), 3, "right");
        let joined = ctx.join(left, right, Some(PartitionerSpec::hash(4)), 1e-6, "join");
        ctx.count(joined, "j");

        let written = |records: &[Record]| {
            let p = HashPartitioner::new(4);
            let mut bytes = [0.0f64; 4];
            for r in records {
                bytes[p.partition(&r.key)] += r.encoded_size() as f64;
            }
            trace::skew_ratio(bytes)
        };
        let stages = &ctx.jobs()[0].stages;
        let skews: Vec<u64> = stages
            .iter()
            .map(|s| s.write_bucket_skew.to_bits())
            .collect();
        let want = [written(&skewed), written(&word_records()), 1.0];
        assert_eq!(skews, want.map(f64::to_bits), "{want:?}");
        assert!(want[0] > 2.0, "the left side writes one hot bucket");
        for s in stages {
            assert_eq!(s.scheme.map(|spec| spec.partitions), Some(s.num_tasks));
        }
    }

    #[test]
    fn virtual_clock_monotone_across_jobs() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        ctx.count(src, "j1");
        let t1 = ctx.clock();
        ctx.count(src, "j2");
        assert!(ctx.clock() > t1);
    }
}
