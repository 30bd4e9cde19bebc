//! Cross-tenant fault isolation: one tenant's jobs run under a
//! deterministic fault-injection plan (task failures, retries, a slow
//! node) while another tenant runs concurrently on the same server. The
//! unaffected tenant's result tables must be bit-identical to its solo
//! (fault-free, single-tenant) run — faults perturb the victim's virtual
//! timings, never anyone's bytes. Nor does a memory budget on top: a
//! faulted tenant whose cached datasets spill still reports the tables of
//! the fault-free, unbounded run.

use jobserver::{serve, Interleave, JobTrace, ServerConfig};

const PLAN_SMOKE: &str = include_str!("../../../plans/plan_smoke.plan");

fn engine() -> engine::EngineOptions {
    engine::EngineOptions {
        cluster: simcluster::uniform_cluster(4, 4, 2.0),
        default_parallelism: 8,
        block_size: 128 * 1024,
        workers: 4,
        ..jobserver::server_engine_defaults()
    }
}

const TRACE: &str = "\
tenant victim weight 1
tenant clean weight 2
job victim at 0 sql scale 0.5 seed 21
job clean at 0.5 wordcount scale 0.1 seed 22
job victim at 1 kmeans scale 0.4 seed 21
job clean at 2 logreg scale 0.1 seed 22
job clean at 3 sql scale 0.12 seed 23
job victim at 4 wordcount scale 0.5 seed 21
job clean at 5 wordcount scale 0.1 seed 22
";

const CLEAN_SOLO: &str = "\
tenant clean weight 2
job clean at 0.5 wordcount scale 0.1 seed 22
job clean at 2 logreg scale 0.1 seed 22
job clean at 3 sql scale 0.12 seed 23
job clean at 5 wordcount scale 0.1 seed 22
";

fn clean_rows(report: &jobserver::ServeReport) -> Vec<(String, usize, u64, bool)> {
    report
        .per_job
        .iter()
        .filter(|r| r.tenant == "clean")
        .map(|r| (r.kind.clone(), r.rows, r.hash, r.cache_hit))
        .collect()
}

#[test]
fn faulted_tenant_does_not_perturb_neighbour_tables() {
    let trace = JobTrace::from_text(TRACE).unwrap();
    let plan = engine::FaultPlan::from_text(PLAN_SMOKE).unwrap();

    let faulted = serve(
        &trace,
        &ServerConfig {
            engine: engine(),
            fault_plans: vec![("victim".to_string(), plan)],
            interleave: Interleave::TenantThreads,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(faulted.completed, trace.jobs.len());
    assert!(
        faulted.faults_injected > 0,
        "plan_smoke injected no faults — the victim never hit the plan"
    );

    // The clean tenant, alone on a fault-free server, job for job.
    let solo = serve(
        &JobTrace::from_text(CLEAN_SOLO).unwrap(),
        &ServerConfig {
            engine: engine(),
            interleave: Interleave::TenantThreads,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(clean_rows(&faulted), clean_rows(&solo));

    // The victim's own tables also survive its faults: a fault-free run
    // of the full trace reports the same fingerprints for every job.
    let fault_free = serve(
        &trace,
        &ServerConfig {
            engine: engine(),
            interleave: Interleave::Serial,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(faulted.tables_text(), fault_free.tables_text());
    // But the faults genuinely cost the victim virtual time.
    assert!(
        faulted.makespan > fault_free.makespan,
        "retries and a slow node should stretch the victim's makespan \
         ({} vs {})",
        faulted.makespan,
        fault_free.makespan
    );

    // Determinism under faults: an identical faulted run is bit-identical.
    let again = serve(
        &trace,
        &ServerConfig {
            engine: engine(),
            fault_plans: vec![(
                "victim".to_string(),
                engine::FaultPlan::from_text(PLAN_SMOKE).unwrap(),
            )],
            interleave: Interleave::Serial,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(format!("{again:?}"), format!("{faulted:?}"));
}

#[test]
fn fault_plan_for_unknown_tenant_is_rejected() {
    let trace = JobTrace::from_text(TRACE).unwrap();
    let plan = engine::FaultPlan::from_text(PLAN_SMOKE).unwrap();
    let err = serve(
        &trace,
        &ServerConfig {
            engine: engine(),
            fault_plans: vec![("nobody".to_string(), plan)],
            ..ServerConfig::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("unknown tenant"), "{err}");
}

#[test]
fn tenant_plan_outside_the_cluster_is_an_error_not_a_panic() {
    let trace = JobTrace::from_text(TRACE).unwrap();
    // Node 7 does not exist on the 4-node cluster.
    let plan = engine::FaultPlan::from_text("lose-node 7 1\n").unwrap();
    let err = serve(
        &trace,
        &ServerConfig {
            engine: engine(),
            fault_plans: vec![("victim".to_string(), plan)],
            ..ServerConfig::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("victim") && err.contains("node"), "{err}");
}

#[test]
fn faulted_tenant_under_a_memory_budget_keeps_its_tables() {
    let trace = JobTrace::from_text(TRACE).unwrap();
    let squeeze = |interleave: Interleave, sink: &engine::TraceSink| {
        serve(
            &trace,
            &ServerConfig {
                engine: engine::EngineOptions {
                    // Far below any job's cached dataset: every capture spills.
                    executor_mem: Some(8 * 1024),
                    trace: sink.clone(),
                    ..engine()
                },
                fault_plans: vec![(
                    "victim".to_string(),
                    engine::FaultPlan::from_text(PLAN_SMOKE).unwrap(),
                )],
                interleave,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    };
    let sink = engine::TraceSink::enabled();
    let squeezed = squeeze(Interleave::Serial, &sink);
    assert!(squeezed.faults_injected > 0, "the plan never fired");
    assert!(
        sink.events().iter().any(|e| e.cat == "spill"),
        "the budget never engaged"
    );
    let free = serve(
        &trace,
        &ServerConfig {
            engine: engine(),
            interleave: Interleave::Serial,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(squeezed.tables_text(), free.tables_text());
    // The neighbour's tables are its solo run's, budget or not.
    let solo = serve(
        &JobTrace::from_text(CLEAN_SOLO).unwrap(),
        &ServerConfig {
            engine: engine(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(clean_rows(&squeezed), clean_rows(&solo));
    // Under a budget a released dataset's storage and spill files go back
    // to the books, so virtual time depends on when it is released: at
    // the same point of each tenant's job stream, whatever the physical
    // interleaving.
    let threaded = squeeze(Interleave::TenantThreads, &engine::TraceSink::disabled());
    assert_eq!(format!("{threaded:?}"), format!("{squeezed:?}"));
}
