//! The test-run grid records a cell the bootstrap already ran without
//! running it again. This checks, on the SQL workload (cached aggregates,
//! a narrow join), that what it records is what executing the cell
//! records — plain, under a fault plan, and under an executor-memory
//! budget.

use chopper::{
    collect_dag, collect_observations, run_test_grid, TestRunPlan, Workload, WorkloadDb,
};
use engine::{Context, EngineOptions, FaultPlan, PartitionerKind, WorkloadConf};
use simcluster::uniform_cluster;
use workloads::{Sql, SqlConfig};

const SMOKE: &str = include_str!("../../../plans/plan_smoke.plan");

fn opts() -> EngineOptions {
    EngineOptions {
        cluster: uniform_cluster(3, 4, 2.0),
        default_parallelism: 12,
        workers: 2,
        ..EngineOptions::default()
    }
}

/// Two scales × two partition counts × both kinds; (0.2, 12, Hash) is the
/// bootstrap's own configuration under [`opts`].
fn plan() -> TestRunPlan {
    TestRunPlan {
        scales: vec![0.2, 0.5],
        partitions: vec![6, 12],
        kinds: vec![PartitionerKind::Hash, PartitionerKind::Range],
        probe_user_fixed: true,
        parallelism: 2,
    }
}

/// The database the grid would record if it executed every cell.
fn every_cell_executed(w: &dyn Workload, opts: &EngineOptions, plan: &TestRunPlan) -> WorkloadDb {
    let run = |conf: &WorkloadConf, scale: f64| {
        let ctx = w.run(opts, conf, scale);
        let bytes = (w.full_input_bytes() as f64 * scale) as u64;
        (
            collect_observations(ctx.jobs(), bytes),
            collect_dag(ctx.jobs(), bytes),
        )
    };
    let mut db = WorkloadDb::new();
    let (observations, boot) = run(&WorkloadConf::new(), plan.scales[0]);
    let signatures = plan.probed_signatures(&boot);
    db.record_run(w.name(), observations, boot);
    for &scale in &plan.scales {
        for &p in &plan.partitions {
            for &kind in &plan.kinds {
                let (observations, dag) = run(&plan.cell_conf(&signatures, kind, p), scale);
                db.record_run(w.name(), observations, dag);
            }
        }
    }
    db
}

/// How a variant changes the options, and how its bootstrap shows it.
type Variant = (&'static str, fn(&mut EngineOptions), fn(&Context) -> bool);

#[test]
fn a_reused_sql_cell_records_what_executing_it_records() {
    let variants: [Variant; 3] = [
        ("plain", |_| {}, |_| true),
        (
            "smoke fault plan",
            |o| o.faults = Some(FaultPlan::from_text(SMOKE).expect("plan parses")),
            |ctx| ctx.fault_counters().retried_tasks > 0,
        ),
        (
            "4 KiB executor memory",
            |o| o.executor_mem = Some(4 * 1024),
            |ctx| ctx.mem_counters().spills > 0,
        ),
    ];
    for (name, vary, bites) in variants {
        let mut o = opts();
        vary(&mut o);
        let w = Sql::new(SqlConfig::small());
        let plan = plan();
        let boot = w.run(&o, &WorkloadConf::new(), plan.scales[0]);
        assert!(bites(&boot), "{name} changes the bootstrap");
        let mut db = WorkloadDb::new();
        let runs = run_test_grid(&w, &o, &plan, &mut db);
        assert_eq!(runs, plan.num_runs() - 1, "{name}: one cell reused");
        let forced = every_cell_executed(&w, &o, &plan);
        assert_eq!(db.to_json(), forced.to_json(), "{name}");
    }
}
