//! CHOPPER: automatic stage-level data partitioning for in-memory DAG
//! analytics frameworks.
//!
//! Rust reproduction of *"CHOPPER: Optimizing Data Partitioning for
//! In-Memory Data Analytics Frameworks"* (Paul et al., IEEE CLUSTER 2016).
//! CHOPPER decides, per workload stage, which partitioner (hash or range)
//! to use and how many partitions to create, by:
//!
//! 1. collecting per-stage statistics from production and lightweight test
//!    runs ([`collector`], [`testrun`]),
//! 2. storing them in a persistent workload database ([`db`]),
//! 3. fitting per-stage cost models over `{D³, D², D, √D, P³, P², P, √P}`
//!    (paper Eq. 1–2; [`model`]),
//! 4. minimizing a normalized time+shuffle objective (Eq. 3–4) per stage
//!    and globally over the DAG, with join subgraph co-partitioning and
//!    γ-gated repartition insertion (Algorithms 1–3; [`optimizer`]),
//! 5. emitting a per-stage configuration file the engine consults before
//!    each stage, and re-running the workload under co-partition-aware
//!    scheduling ([`autotune`]).
//!
//! The DAG engine itself lives in the `engine` crate; CHOPPER is an
//! independent component layered on top, as in the paper's Fig. 5.
//!
//! ```
//! use chopper::{Autotuner, TestRunPlan, Workload, WorkloadDb};
//! use engine::{Context, EngineOptions, Key, Record, Value, WorkloadConf};
//! use std::sync::Arc;
//!
//! struct WordCount;
//! impl Workload for WordCount {
//!     fn name(&self) -> &str { "wordcount" }
//!     fn full_input_bytes(&self) -> u64 { 20_000 }
//!     fn run(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> Context {
//!         let mut ctx = Context::new(opts.clone());
//!         ctx.set_conf(conf.clone());
//!         let n = (1000.0 * scale) as i64;
//!         let data = (0..n).map(|i| Record::new(Key::Int(i % 7), Value::Int(1))).collect();
//!         let src = ctx.parallelize(data, 4, "src");
//!         let counts = ctx.reduce_by_key(
//!             src, Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int())),
//!             None, 1e-6, "count");
//!         ctx.count(counts, "wordcount");
//!         ctx
//!     }
//! }
//!
//! let mut tuner = Autotuner::new(EngineOptions {
//!     cluster: simcluster::uniform_cluster(2, 4, 2.0),
//!     default_parallelism: 64,
//!     workers: 2,
//!     ..EngineOptions::default()
//! });
//! tuner.test_plan = TestRunPlan::quick();
//! let mut db = WorkloadDb::new();
//! tuner.train(&WordCount, &mut db);
//! let plan = tuner.plan(&WordCount, &db);
//! assert!(!plan.decisions.is_empty());
//! ```

pub mod adaptive;
pub mod autotune;
pub mod collector;
pub mod db;
pub mod model;
pub mod optimizer;
pub mod testrun;
pub mod workload;

pub use adaptive::{replan, ReplanOptions};
pub use autotune::{Autotuner, Comparison};
pub use collector::{collect_dag, collect_observations, DagStage, Observation, RunSnapshot};
pub use db::{WorkloadDb, WorkloadRecord};
pub use model::{
    cost, cost_with_baseline, cross_validation_error, CostConstants, CostWeights, ModelBasis,
    StageModel, MIN_OBSERVATIONS,
};
pub use optimizer::{
    get_global_par, get_stage_par, get_workload_par, DecisionAction, OptimizerOptions,
    StageDecision, StagePar, TuningPlan,
};
pub use testrun::{run_test_grid, TestRunPlan};
pub use workload::Workload;
