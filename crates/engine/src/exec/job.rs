//! Job driving: plan an action's lineage into stages, run them in order,
//! charge the driver-side result collection, and hand the finished job's
//! actuals to the re-planner. Also the partition-count and partitioning
//! questions a plan leaves to execution time.

use super::context::{Context, STAGES};
use super::dataplane::TaskOut;
use super::stage::ShuffleData;
use crate::metrics::{JobMetrics, StageMetrics};
use crate::ops::OpKind;
use crate::partitioner::PartitionerSpec;
use crate::rdd::Rdd;
use crate::stage::{plan_job, Plan, PlanStage, StageOutput, StageRoot};

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

        self.replan_after_job(&plan, job_id, &stage_metrics, &shuffles);

        self.jobs.push(JobMetrics {
            job_id,
            name: name.to_string(),
            stages: stage_metrics,
            start: job_start,
            end: self.sim.clock(),
        });
        result
    }

    /// Between-jobs re-optimization: hand the finished job's actuals to
    /// the installed hook; a returned configuration replaces `conf` for
    /// subsequent jobs. Decisions and their trigger state are recorded as
    /// virtual-clock trace instants on the driver track.
    fn replan_after_job(
        &mut self,
        plan: &Plan,
        job_id: usize,
        stage_metrics: &[StageMetrics],
        shuffles: &[Option<ShuffleData>],
    ) {
        let Some(hook) = self.options.replan.clone() else {
            return;
        };
        let actuals: Vec<crate::adaptive::StageActuals> = stage_metrics
            .iter()
            .enumerate()
            .map(|(idx, m)| {
                let write_bucket_skew = match plan.stages[idx].output {
                    StageOutput::ShuffleWrite(sidx) => shuffles[sidx]
                        .as_ref()
                        .map(|d| {
                            let cols: Vec<f64> =
                                d.column_bytes().into_iter().map(|b| b as f64).collect();
                            trace::skew_ratio(&cols)
                        })
                        .unwrap_or(1.0),
                    StageOutput::Result => 1.0,
                };
                crate::adaptive::StageActuals {
                    stage_id: m.stage_id,
                    signature: m.root_signature,
                    kind: m.kind,
                    scheme: m.scheme,
                    configurable: m.configurable,
                    num_tasks: self.stage_partitions(plan, &plan.stages[idx]).max(1),
                    tasks_run: m.num_tasks,
                    input_records: m.input_records,
                    input_bytes: m.input_bytes,
                    output_bytes: m.output_bytes,
                    shuffle_read_bytes: m.shuffle_read_bytes,
                    shuffle_write_bytes: m.shuffle_write_bytes,
                    write_bucket_skew,
                    duration_s: m.end - m.start,
                    task_skew: m.task_skew(),
                }
            })
            .collect();
        let input = crate::adaptive::ReplanInput {
            job_id,
            clock: self.sim.clock(),
            conf: self.conf.clone(),
            actuals,
        };
        if let Some(new_conf) = hook(&input) {
            self.emit(STAGES, "adaptive", || {
                (
                    format!("j{job_id} adaptive replan"),
                    vec![
                        ("job", job_id.into()),
                        ("decisions", new_conf.stages.len().into()),
                    ],
                )
            });
            self.conf = new_conf;
        }
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
    use crate::partitioner::PartitionerSpec;
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
