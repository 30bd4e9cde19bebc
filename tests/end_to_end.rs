//! Cross-crate integration: the full CHOPPER loop — run, collect, train,
//! plan, reconfigure, re-run — over real workloads on the simulated paper
//! cluster.

use chopper_repro::chopper::{
    collect_dag, collect_observations, Autotuner, StageModel, TestRunPlan, Workload, WorkloadDb,
};
use chopper_repro::engine::{
    Context, EngineOptions, HashPartitioner, Key, Partitioner, PartitionerKind, PartitionerSpec,
    Record, Value, WorkloadConf,
};
use chopper_repro::simcluster::uniform_cluster;
use chopper_repro::workloads::{KMeans, KMeansConfig, Sql, SqlConfig};
use std::sync::Arc;

fn small_engine(parallelism: usize) -> EngineOptions {
    EngineOptions {
        cluster: uniform_cluster(4, 8, 2.0),
        default_parallelism: parallelism,
        workers: 2,
        ..EngineOptions::default()
    }
}

fn quick_tuner(parallelism: usize) -> Autotuner {
    let mut t = Autotuner::new(small_engine(parallelism));
    t.test_plan = TestRunPlan {
        scales: vec![0.2, 0.5, 1.0],
        partitions: vec![8, 16, 32, 64, 150, 300],
        kinds: vec![PartitionerKind::Hash],
        probe_user_fixed: true,
        parallelism: 2,
    };
    t.optimizer.default_parallelism = parallelism;
    t
}

#[test]
fn kmeans_full_loop_improves_oversized_default() {
    let w = KMeans::new(KMeansConfig::small());
    let cmp = quick_tuner(300).compare(&w);
    assert!(
        cmp.chopper_time() < cmp.vanilla_time(),
        "vanilla {:.2}s vs chopper {:.2}s",
        cmp.vanilla_time(),
        cmp.chopper_time()
    );
    // The plan retuned at least the parse and update stages.
    assert!(
        cmp.plan.conf.stages.len() >= 2,
        "plan: {:?}",
        cmp.plan.decisions
    );
    // Table II: the tuned stage 0 is no slower than vanilla's (the
    // partition-dependency group may keep its default at this scale).
    let stage0 = |ctx: &chopper_repro::engine::Context| ctx.all_stages()[0].duration();
    assert!(
        stage0(&cmp.chopper) <= stage0(&cmp.vanilla) * 1.01,
        "stage 0: {:.2}s vs {:.2}s",
        stage0(&cmp.chopper),
        stage0(&cmp.vanilla)
    );
    // Table III: per-stage variety, and the iterations' update stages
    // share one count.
    let counts: Vec<usize> = cmp
        .chopper
        .all_stages()
        .iter()
        .map(|s| s.num_tasks)
        .collect();
    assert!(
        counts.iter().any(|&c| c != counts[0]),
        "one count everywhere: {counts:?}"
    );
    let first_iter = 1 + w.config.prep_passes;
    let updates: Vec<usize> = (0..w.config.iterations)
        .map(|i| counts[first_iter + 2 * i + 1])
        .collect();
    assert!(
        updates.windows(2).all(|u| u[0] == u[1]),
        "iterations differ: {updates:?}"
    );
}

#[test]
fn sql_full_loop_keeps_join_copartitioned() {
    let w = Sql::new(SqlConfig::small());
    let cmp = quick_tuner(300).compare(&w);
    assert!(cmp.chopper_time() < cmp.vanilla_time());
    // The join subgraph must stay unified: the two aggregation stages and
    // the join all run under the same scheme in the tuned run.
    let stages: Vec<_> = cmp.chopper.all_stages().into_iter().cloned().collect();
    let schemes: Vec<_> = [1usize, 3, 4]
        .iter()
        .map(|&i| stages[i].scheme.expect("reduce/join stages carry schemes"))
        .collect();
    assert_eq!(schemes[0], schemes[1], "join sides co-partitioned");
    assert_eq!(schemes[0], schemes[2], "join matches its sides");
}

#[test]
fn trained_database_survives_serialization_and_still_plans() {
    let w = KMeans::new(KMeansConfig::small());
    let t = quick_tuner(300);
    let mut db = WorkloadDb::new();
    t.train(&w, &mut db);
    let restored = WorkloadDb::from_json(&db.to_json()).expect("round trip");
    let plan_fresh = t.plan(&w, &db);
    let plan_restored = t.plan(&w, &restored);
    assert_eq!(
        plan_fresh.conf, plan_restored.conf,
        "plans match after persistence"
    );
    assert!(!plan_fresh.conf.is_empty());
}

#[test]
fn config_file_text_round_trips_through_engine() {
    let w = KMeans::new(KMeansConfig::small());
    let t = quick_tuner(300);
    let mut db = WorkloadDb::new();
    t.train(&w, &mut db);
    let plan = t.plan(&w, &db);

    // Serialize the plan to the Fig. 6 text format, parse it back, and run
    // the workload under the parsed configuration.
    let text = plan.conf.to_text();
    let parsed = WorkloadConf::from_text(&text).expect("engine parses its own format");
    assert_eq!(parsed, plan.conf);

    let mut chopper_opts = small_engine(300);
    chopper_opts.copartition_scheduling = true;
    let tuned = w.run(&chopper_opts, &parsed, 1.0);
    let vanilla = w.run(&small_engine(300), &WorkloadConf::new(), 1.0);
    let t_tuned = tuned.jobs().last().unwrap().end;
    let t_vanilla = vanilla.jobs().last().unwrap().end;
    assert!(t_tuned < t_vanilla, "{t_tuned} !< {t_vanilla}");
}

#[test]
fn production_observations_anchor_the_models() {
    // Models fitted with the full-scale production run included predict
    // full-scale behaviour better than sampled-only models.
    let w = KMeans::new(KMeansConfig::small());
    let t = quick_tuner(64);

    let mut sampled_only = WorkloadDb::new();
    t.train(&w, &mut sampled_only);

    let full_ctx = w.run(&small_engine(64), &WorkloadConf::new(), 1.0);
    let full_bytes = w.full_input_bytes();
    let mut anchored = sampled_only.clone();
    anchored.record_run(
        w.name(),
        collect_observations(full_ctx.jobs(), full_bytes),
        collect_dag(full_ctx.jobs(), full_bytes),
    );

    // Validate on the parse stage: predict the full-scale stage-0 time.
    let stage0 = full_ctx.all_stages()[0].clone();
    let validate = chopper_repro::chopper::Observation {
        d: stage0.input_bytes as f64,
        p: stage0.num_tasks as f64,
        t_exe: stage0.duration(),
        s_shuffle: stage0.shuffle_data() as f64,
    };
    let err = |db: &WorkloadDb| -> f64 {
        let rec = db.workload(w.name()).expect("trained");
        let model = StageModel::fit(rec.observations(stage0.root_signature, PartitionerKind::Hash))
            .expect("enough observations");
        model.time_error(&[validate])
    };
    assert!(
        err(&anchored) <= err(&sampled_only) + 1e-9,
        "anchored {:.4} vs sampled-only {:.4}",
        err(&anchored),
        err(&sampled_only)
    );
}

#[test]
fn autotune_is_deterministic_across_worker_and_grid_parallelism() {
    // Host-side parallelism — both the engine's worker pool and the test-run
    // grid fan-out — must never leak into what the tuner observes or decides.
    // Train and plan under (workers=1, serial grid) and (workers=8, parallel
    // grid): the observation databases and final plans must match exactly.
    let tune = |workers: usize, grid_parallelism: usize| {
        let mut opts = small_engine(300);
        opts.workers = workers;
        let mut t = Autotuner::new(opts);
        t.test_plan = TestRunPlan {
            scales: vec![0.2, 0.5, 1.0],
            partitions: vec![8, 32, 150, 300],
            kinds: vec![PartitionerKind::Hash],
            probe_user_fixed: true,
            parallelism: grid_parallelism,
        };
        t.optimizer.default_parallelism = 300;
        let w = KMeans::new(KMeansConfig::small());
        let mut db = WorkloadDb::new();
        t.train(&w, &mut db);
        let plan = t.plan(&w, &db);
        (db.to_json(), plan.conf)
    };
    let (db_serial, plan_serial) = tune(1, 1);
    let (db_parallel, plan_parallel) = tune(8, 4);
    assert_eq!(db_serial, db_parallel, "observation databases diverged");
    assert_eq!(plan_serial, plan_parallel, "tuned plans diverged");
}

#[test]
fn repartition_insertion_hook_round_trip() {
    // A user-fixed source with a pathologically high split count: the
    // engine-side hook inserts a repartition phase when the configuration
    // asks for one.
    use chopper_repro::engine::{Context, Key, PartitionerSpec, Record, Value};

    let mut ctx = Context::new(small_engine(32));
    let data: Vec<Record> = (0..20_000)
        .map(|i| Record::new(Key::Int(i % 50), Value::Int(1)))
        .collect();
    let src = ctx.parallelize(data, 512, "overpartitioned-src");
    let sig = ctx.signature(src);
    let mut conf = WorkloadConf::new();
    conf.set_repartition(sig, PartitionerSpec::hash(16));
    ctx.set_conf(conf);
    let repartitioned = ctx.maybe_insert_repartition(src);
    assert_ne!(repartitioned, src);
    ctx.count(repartitioned, "coalesce");
    let last = ctx.jobs().last().unwrap().stages.last().unwrap().clone();
    assert_eq!(
        last.num_tasks, 16,
        "inserted phase runs at the requested width"
    );
}

#[test]
fn partition_dependency_grouping_protects_cached_chains() {
    // LogReg: the gradient/evaluate stages read the cached points and
    // inherit the parse stage's split count. Algorithm 3 must group them
    // with the parse stage and decide jointly, never leaving the group
    // with a plan that regresses the whole chain.
    use chopper_repro::chopper::DecisionAction;
    use chopper_repro::workloads::{LogReg, LogRegConfig};

    let w = LogReg::new(LogRegConfig::small());
    let cmp = quick_tuner(300).compare(&w);
    // The cached stages are explicitly marked as following their producer.
    let followers = cmp
        .plan
        .decisions
        .iter()
        .filter(|d| matches!(d.action, DecisionAction::FollowsProducer(_)))
        .count();
    assert!(
        followers >= 1,
        "gradient/evaluate follow the parse stage: {:?}",
        cmp.plan.decisions
    );
    // And the joint decision must not make the tuned run slower.
    assert!(
        cmp.chopper_time() <= cmp.vanilla_time() * 1.02,
        "grouped plan must not regress: {:.2} vs {:.2}",
        cmp.chopper_time(),
        cmp.vanilla_time()
    );
}

#[test]
fn optimizer_never_regresses_any_workload_at_small_scale() {
    // The guard the whole suite depends on: for every workload, the tuned
    // run is at worst marginally slower than vanilla (model noise bound),
    // and usually faster.
    use chopper_repro::workloads::{KMeans, KMeansConfig, Pca, PcaConfig, Sql, SqlConfig};
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(KMeans::new(KMeansConfig::small())),
        Box::new(Pca::new(PcaConfig::small())),
        Box::new(Sql::new(SqlConfig::small())),
    ];
    for w in &workloads {
        let cmp = quick_tuner(300).compare(w.as_ref());
        assert!(
            cmp.chopper_time() <= cmp.vanilla_time() * 1.05,
            "{}: tuned {:.2}s vs vanilla {:.2}s",
            w.name(),
            cmp.chopper_time(),
            cmp.vanilla_time()
        );
    }
}

/// A hot hash aggregation splits in-job: 400 keys that all hash to
/// partition 0 of 8 carry most of the records, so that partition's
/// buckets are byte-hot even after the map-side combine. Its reduce stage
/// runs more virtual tasks than partitions, under the same hash scheme,
/// and its sorted output equals the static run's.
#[test]
fn a_hot_hash_aggregation_splits_in_job() {
    let keys = |hot: bool| {
        let bucket = HashPartitioner::new(8);
        (0i64..)
            .map(Key::Int)
            .filter(move |k| (bucket.partition(k) == 0) == hot)
    };
    let records: Vec<Record> = keys(true)
        .take(400)
        .flat_map(|k| (0..10).map(move |v| Record::new(k.clone(), Value::Int(v))))
        .chain(keys(false).take(140).map(|k| Record::new(k, Value::Int(1))))
        .collect();
    let run = |adaptive: bool| {
        let mut ctx = Context::new(EngineOptions {
            adaptive,
            ..small_engine(8)
        });
        let src = ctx.parallelize(records.clone(), 8, "src");
        let sum = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
        let totals = ctx.reduce_by_key(src, sum, None, 1e-6, "totals");
        let mut out = ctx.collect(totals, "totals");
        out.sort_by(|a, b| a.key.cmp(&b.key));
        let reduce = ctx.jobs()[0].stages[1].clone();
        (out, reduce)
    };
    let (split, stage) = run(true);
    let (unsplit, _) = run(false);
    assert_eq!(stage.scheme, Some(PartitionerSpec::hash(8)));
    assert!(
        stage.num_tasks > 8,
        "the hot partition ran unsplit: {} tasks",
        stage.num_tasks
    );
    assert_eq!(split, unsplit);
}
