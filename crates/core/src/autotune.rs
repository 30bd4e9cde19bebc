//! End-to-end auto-tuning façade (Fig. 5, as Section IV uses it).
//!
//! [`Autotuner::observe`] runs the workload under vanilla Spark defaults
//! and trains the per-stage models from lightweight test runs;
//! [`Autotuner::decide`] computes the globally optimized configuration
//! (Algorithm 3) and runs again under co-partition-aware scheduling.

use crate::db::WorkloadDb;
use crate::optimizer::{get_global_par, OptimizerOptions, TuningPlan};
use crate::testrun::{run_test_grid, TestRunPlan};
use crate::workload::Workload;
use engine::{Context, EngineOptions, WorkloadConf};

/// Auto-tuner configuration.
#[derive(Clone)]
pub struct Autotuner {
    /// Engine options for the vanilla baseline (paper: default 300
    /// partitions, stock scheduling).
    pub vanilla_opts: EngineOptions,
    /// Engine options for CHOPPER runs (co-partition-aware scheduling on).
    pub chopper_opts: EngineOptions,
    /// The test-run grid.
    pub test_plan: TestRunPlan,
    /// Optimizer knobs (α/β/γ, candidate grid).
    pub optimizer: OptimizerOptions,
}

impl Autotuner {
    /// An auto-tuner over the given base engine options: the vanilla run
    /// uses them as-is; CHOPPER runs enable co-partition scheduling.
    pub fn new(base: EngineOptions) -> Self {
        let mut chopper = base.clone();
        chopper.copartition_scheduling = true;
        let optimizer = OptimizerOptions {
            default_parallelism: base.default_parallelism,
            // The optimizer records its fits/decisions into the same sink
            // the engine runs trace into.
            trace: base.trace.clone(),
            // Under a bounded executor memory, feed the per-task share to
            // the cost model so the partition search stays feasible.
            task_mem_budget: base.per_task_mem_budget().map(|b| b as f64),
            // Under a fault plan, charge expected retries into every
            // candidate's cost so re-tuning after a topology change
            // accounts for recovery work.
            fault_prob: base
                .faults
                .as_ref()
                .map(|f| f.task_fail_prob)
                .unwrap_or(0.0),
            // Judge shuffle significance against what the cluster can
            // actually move — slowest NIC, degraded by the topology's
            // oversubscription — instead of a hard-coded constant.
            shuffle_bandwidth: Some(base.cluster.effective_shuffle_bandwidth()),
            ..OptimizerOptions::default()
        };
        Autotuner {
            vanilla_opts: base,
            chopper_opts: chopper,
            test_plan: TestRunPlan::default(),
            optimizer,
        }
    }

    /// Runs the test grid, recording observations into `db`, and returns
    /// the number of runs executed (see [`run_test_grid`]). Training is
    /// offline — it does not touch the production clock.
    pub fn train(&self, workload: &dyn Workload, db: &mut WorkloadDb) -> usize {
        run_test_grid(workload, &self.chopper_opts, &self.test_plan, db)
    }

    /// Computes the globally optimized plan for the workload's full input.
    pub fn plan(&self, workload: &dyn Workload, db: &WorkloadDb) -> TuningPlan {
        match db.workload(workload.name()) {
            Some(rec) => get_global_par(rec, workload.full_input_bytes(), &self.optimizer),
            None => TuningPlan::default(),
        }
    }

    /// The naive per-stage plan (paper Algorithm 2): each stage optimized
    /// independently, ignoring join dependencies and user-fixed schemes'
    /// repartition opportunities. Kept for the Algorithm 2 vs Algorithm 3
    /// comparison the paper argues from — independently optimal schemes on
    /// a join's two sides generally differ, breaking co-partitioning.
    pub fn plan_naive(&self, workload: &dyn Workload, db: &WorkloadDb) -> TuningPlan {
        use crate::optimizer::{get_workload_par, DecisionAction, StageDecision};
        let Some(rec) = db.workload(workload.name()) else {
            return TuningPlan::default();
        };
        let mut plan = TuningPlan::default();
        for (stage, par) in get_workload_par(rec, workload.full_input_bytes(), &self.optimizer) {
            let action = match par {
                Some(par) if stage.configurable && !stage.user_fixed => {
                    let spec = engine::PartitionerSpec {
                        kind: par.kind,
                        partitions: par.partitions,
                    };
                    plan.conf.set_stage(stage.signature, spec);
                    DecisionAction::Retune(spec)
                }
                Some(_) if stage.user_fixed => DecisionAction::KeepUserFixed,
                _ => DecisionAction::KeepDefault,
            };
            plan.decisions.push(StageDecision {
                signature: stage.signature,
                name: stage.name.clone(),
                action,
            });
        }
        plan
    }

    /// The training half of the evaluation protocol, which reads no
    /// [`OptimizerOptions`]: the vanilla run, recorded as the anchor, then
    /// the test grid. The vanilla run is the *production-run* statistics
    /// source the paper describes ("CHOPPER also remembers the statistics
    /// from the user workload execution in a production environment"):
    /// its full-scale observations keep the optimizer from extrapolating
    /// the Eq. 1–2 polynomial in `D` far beyond the sampled test runs.
    pub fn observe(&self, workload: &dyn Workload) -> (Context, WorkloadDb) {
        let vanilla = workload.run_full(&self.vanilla_opts, &WorkloadConf::new());
        let mut db = WorkloadDb::new();
        let full = workload.full_input_bytes();
        db.record_run(
            workload.name(),
            crate::collector::collect_observations(vanilla.jobs(), full),
            crate::collector::collect_dag(vanilla.jobs(), full),
        );
        self.train(workload, &mut db);
        (vanilla, db)
    }

    /// The deciding half: the plan from a trained `db`, then the tuned run.
    pub fn decide(&self, workload: &dyn Workload, db: &WorkloadDb) -> (TuningPlan, Context) {
        let plan = self.plan(workload, db);
        let tuned = workload.run_full(&self.chopper_opts, &plan.conf);
        (plan, tuned)
    }

    /// Full evaluation protocol: [`Autotuner::observe`], then [`Autotuner::decide`].
    pub fn compare(&self, workload: &dyn Workload) -> Comparison {
        let (vanilla, db) = self.observe(workload);
        let (plan, chopper) = self.decide(workload, &db);
        Comparison {
            workload: workload.name().to_string(),
            vanilla,
            chopper,
            plan,
            db,
        }
    }
}

/// Outcome of a vanilla-vs-CHOPPER comparison (the paper's Fig. 7 rows).
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// The vanilla run's finished context.
    pub vanilla: Context,
    /// The CHOPPER run's finished context.
    pub chopper: Context,
    /// The installed tuning plan.
    pub plan: TuningPlan,
    /// The trained database (reusable across input sizes).
    pub db: WorkloadDb,
}

impl Comparison {
    /// Total vanilla execution time (virtual seconds).
    pub fn vanilla_time(&self) -> f64 {
        self.vanilla.run_span()
    }

    /// Total CHOPPER execution time (virtual seconds), including any
    /// inserted repartition phases — "the reported execution time includes
    /// the overhead of repartitioning introduced by CHOPPER".
    pub fn chopper_time(&self) -> f64 {
        self.chopper.run_span()
    }

    /// Relative improvement in percent (positive = CHOPPER faster).
    pub fn improvement_pct(&self) -> f64 {
        let v = self.vanilla_time();
        if v <= 0.0 {
            return 0.0;
        }
        100.0 * (v - self.chopper_time()) / v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::testutil::MiniAgg;
    use simcluster::uniform_cluster;

    fn tuner() -> Autotuner {
        let base = EngineOptions {
            cluster: uniform_cluster(3, 4, 2.0),
            // Deliberately poor default: far more tasks than this tiny
            // workload wants.
            default_parallelism: 400,
            workers: 2,
            ..EngineOptions::default()
        };
        let mut t = Autotuner::new(base);
        t.test_plan = TestRunPlan {
            scales: vec![0.2, 0.5, 1.0],
            partitions: vec![6, 12, 50, 150, 400],
            kinds: vec![engine::PartitionerKind::Hash],
            probe_user_fixed: true,
            parallelism: 2,
        };
        t.optimizer.default_parallelism = 400;
        t.optimizer.candidates = vec![6, 12, 25, 50, 100, 200, 400, 800];
        t
    }

    /// [`tuner`] with every optimizer knob the ablations sweep changed,
    /// and nothing else.
    fn variant() -> Autotuner {
        let mut t = tuner();
        t.optimizer.weights = crate::CostWeights {
            alpha: 0.3,
            beta: 0.7,
        };
        t.optimizer.gamma = 10.0;
        t.optimizer.clamp_to_trained_range = !t.optimizer.clamp_to_trained_range;
        t.optimizer.basis = crate::ModelBasis::Paper;
        t.optimizer.shuffle_bandwidth = None;
        t
    }

    #[test]
    fn one_observation_serves_every_optimizer_variant() {
        let w = MiniAgg {
            records_full: 30_000,
            keys: 40,
        };
        let (vanilla, db) = tuner().observe(&w);
        let mut confs = Vec::new();
        for t in [tuner(), variant()] {
            // `compare` is `observe` then `decide`, bit for bit, and the
            // observation is the same whatever the optimizer options.
            let fresh = t.compare(&w);
            assert_eq!(fresh.vanilla_time().to_bits(), vanilla.run_span().to_bits());
            assert_eq!(
                fresh.db.to_json(),
                db.to_json(),
                "observe read an optimizer option"
            );
            let (plan, tuned) = t.decide(&w, &db);
            assert_eq!(plan.conf, fresh.plan.conf);
            assert_eq!(tuned.run_span().to_bits(), fresh.chopper_time().to_bits());
            confs.push(plan.conf);
        }
        assert_ne!(confs[0], confs[1], "the variant must decide differently");
    }

    #[test]
    fn shuffle_bandwidth_derives_from_the_cluster_spec() {
        let t = tuner();
        let nic = t.vanilla_opts.cluster.nodes[0].net_bandwidth;
        assert_eq!(t.optimizer.shuffle_bandwidth, Some(nic));

        // An oversubscribed rack topology degrades the derived value.
        let base = EngineOptions {
            cluster: uniform_cluster(4, 4, 2.0).with_topology(simcluster::Topology::Rack {
                racks: 2,
                hosts: 2,
                oversub: 4.0,
            }),
            ..EngineOptions::default()
        };
        let t2 = Autotuner::new(base);
        assert_eq!(t2.optimizer.shuffle_bandwidth, Some(nic / 4.0));
    }

    #[test]
    fn memory_and_recovery_bounds_meet_in_one_tuner() {
        let base = EngineOptions {
            cluster: uniform_cluster(3, 4, 2.0),
            executor_mem: Some(64 << 20),
            faults: Some(engine::FaultPlan {
                task_fail_prob: 0.05,
                ..engine::FaultPlan::default()
            }),
            ..EngineOptions::default()
        };
        assert_eq!(base.validate(), Ok(()));
        let t = Autotuner::new(base);
        // 64 MiB over the four cores of a node, and the plan's failure
        // rate: both bounds on the choice of P are live at once.
        assert_eq!(t.optimizer.task_mem_budget, Some((16u64 << 20) as f64));
        assert_eq!(t.optimizer.fault_prob, 0.05);
    }

    #[test]
    fn end_to_end_tuning_beats_bad_default() {
        let w = MiniAgg {
            records_full: 30_000,
            keys: 40,
        };
        let cmp = tuner().compare(&w);
        assert!(
            cmp.chopper_time() < cmp.vanilla_time(),
            "tuned run must beat a 400-partition default on a tiny workload: {} vs {}",
            cmp.chopper_time(),
            cmp.vanilla_time()
        );
        assert!(cmp.improvement_pct() > 0.0);
        // The plan actually retuned something.
        assert!(!cmp.plan.conf.is_empty());
    }

    #[test]
    fn plan_chooses_moderate_parallelism_for_small_workload() {
        let w = MiniAgg {
            records_full: 30_000,
            keys: 40,
        };
        let t = tuner();
        let mut db = WorkloadDb::new();
        t.train(&w, &mut db);
        let plan = t.plan(&w, &db);
        for d in &plan.decisions {
            if let crate::optimizer::DecisionAction::Retune(spec)
            | crate::optimizer::DecisionAction::RetuneGrouped(spec) = &d.action
            {
                assert!(
                    spec.partitions < 400,
                    "stage {} should not keep the oversized default, got {}",
                    d.name,
                    spec.partitions
                );
            }
        }
    }

    #[test]
    fn naive_plan_covers_every_stage_without_grouping() {
        let w = MiniAgg {
            records_full: 30_000,
            keys: 40,
        };
        let t = tuner();
        let mut db = WorkloadDb::new();
        t.train(&w, &mut db);
        let naive = t.plan_naive(&w, &db);
        let global = t.plan(&w, &db);
        assert_eq!(naive.decisions.len(), global.decisions.len());
        // Without joins, both algorithms agree on this workload.
        assert_eq!(naive.conf.stages.len(), global.conf.stages.len());
        assert!(naive
            .decisions
            .iter()
            .all(|d| !matches!(d.action, crate::optimizer::DecisionAction::RetuneGrouped(_))));
    }

    #[test]
    fn plan_without_training_is_empty() {
        let w = MiniAgg {
            records_full: 1000,
            keys: 5,
        };
        let t = tuner();
        let db = WorkloadDb::new();
        let plan = t.plan(&w, &db);
        assert!(plan.conf.is_empty());
    }

    #[test]
    fn comparison_accounts_full_span() {
        let w = MiniAgg {
            records_full: 10_000,
            keys: 10,
        };
        let cmp = tuner().compare(&w);
        assert!(cmp.vanilla_time() > 0.0);
        assert!(cmp.chopper_time() > 0.0);
        let expected = 100.0 * (cmp.vanilla_time() - cmp.chopper_time()) / cmp.vanilla_time();
        assert!((cmp.improvement_pct() - expected).abs() < 1e-9);
    }
}
