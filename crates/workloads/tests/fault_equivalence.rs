//! Fault injection must never change what a workload computes. For every
//! paper workload and every shipped fault plan, a faulted run must
//! produce the same results and the same placement-independent byte
//! tables as the fault-free run — only simulated timings, placements,
//! and the recovery trace may differ. On top of that, faulted execution
//! itself must stay deterministic: the same plan and seed must replay
//! the same injected faults and the same virtual-clock trace at any host
//! worker count. The lossy plan is also run under a memory budget tight
//! enough to spill, where a lost node's cached partitions re-home through
//! the memory manager. Beyond the shipped plans, a property test draws
//! random valid plans and holds them to the same invariants.

use chopper::Workload;
use engine::{ClockFilter, Context, EngineOptions, FaultPlan, NodeLoss, TraceSink, WorkloadConf};
use plans::arb_plan;
use proptest::prelude::*;
use simcluster::uniform_cluster;
use std::fmt::Write as _;
use workloads::{KMeans, KMeansConfig, LogReg, LogRegConfig, Pca, PcaConfig, Sql, SqlConfig};

/// The generator of valid plans, shared with the engine's own suites.
#[path = "../../engine/tests/support/plans.rs"]
mod plans;

const SMOKE: &str = include_str!("../../../plans/plan_smoke.plan");
const LOSSY: &str = include_str!("../../../plans/plan_lossy.plan");

fn plan(text: &str) -> FaultPlan {
    FaultPlan::from_text(text).expect("shipped plan parses")
}

fn small_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(KMeans::new(KMeansConfig::small())),
        Box::new(Pca::new(PcaConfig::small())),
        Box::new(Sql::new(SqlConfig::small())),
        Box::new(LogReg::new(LogRegConfig::small())),
    ]
}

/// Small enough that every small workload spills.
const TIGHT_MEM: u64 = 8 * 1024;

fn options(workers: usize, faults: Option<FaultPlan>, mem: Option<u64>) -> EngineOptions {
    EngineOptions {
        cluster: uniform_cluster(3, 4, 2.0),
        default_parallelism: 8,
        workers,
        trace: TraceSink::enabled(),
        faults,
        executor_mem: mem,
        ..EngineOptions::default()
    }
}

fn run(w: &dyn Workload, workers: usize, faults: Option<FaultPlan>) -> Context {
    run_with_mem(w, workers, faults, None)
}

fn run_with_mem(
    w: &dyn Workload,
    workers: usize,
    faults: Option<FaultPlan>,
    mem: Option<u64>,
) -> Context {
    w.run(&options(workers, faults, mem), &WorkloadConf::new(), 1.0)
}

/// The placement- and timing-independent view of a finished run: job and
/// stage structure plus every byte/record table. This is exactly the set
/// of quantities a fault plan must not move — durations, placements, and
/// remote-read splits legitimately change under faults.
fn byte_table(ctx: &Context) -> String {
    let mut s = String::new();
    for j in ctx.jobs() {
        writeln!(s, "job {} ({} stages)", j.name, j.stages.len()).unwrap();
        for m in &j.stages {
            writeln!(
                s,
                "  {} kind={:?} tasks={} in={}r/{}B out={}r/{}B shuffle_r={}B shuffle_w={}B",
                m.name,
                m.kind,
                m.num_tasks,
                m.input_records,
                m.input_bytes,
                m.output_records,
                m.output_bytes,
                m.shuffle_read_bytes,
                m.shuffle_write_bytes
            )
            .unwrap();
        }
    }
    s
}

/// Everything virtual-clock observable, for faulted-vs-faulted bit
/// comparisons (same plan, different worker count).
fn virtual_view(ctx: &Context) -> (String, String) {
    (
        format!("{:?}", ctx.all_stages()),
        ctx.trace_sink()
            .chrome_json_filtered(ClockFilter::VirtualOnly),
    )
}

/// Shared matrix check for one shipped plan under one memory budget:
/// every faulted configuration must (a) match the fault-free run's byte
/// tables and (b) be bit-equal to the faulted reference on every
/// virtual-clock observable.
fn assert_plan_equivalent(text: &str, mem: Option<u64>) {
    let p = plan(text);
    for w in small_workloads() {
        let clean = byte_table(&run_with_mem(w.as_ref(), 1, None, mem));
        let reference = run_with_mem(w.as_ref(), 1, Some(p.clone()), mem);
        assert_eq!(
            mem.is_some(),
            reference.mem_counters().spills > 0,
            "{}: spills under a budget, and only then",
            w.name()
        );
        assert_eq!(
            clean,
            byte_table(&reference),
            "{}: faults changed a byte table",
            w.name()
        );
        let (ref_stages, ref_trace) = virtual_view(&reference);
        assert!(!ref_trace.is_empty(), "{}: no trace events", w.name());
        let what = format!("{}: workers 8", w.name());
        let got = run_with_mem(w.as_ref(), 8, Some(p.clone()), mem);
        assert_eq!(clean, byte_table(&got), "{what}: byte table diverged");
        let (stages, trace) = virtual_view(&got);
        assert_eq!(ref_stages, stages, "{what}: stage metrics diverged");
        assert_eq!(ref_trace, trace, "{what}: virtual trace diverged");
        assert_eq!(
            reference.fault_counters(),
            got.fault_counters(),
            "{what}: injected faults diverged"
        );
        assert_eq!(
            reference.mem_counters(),
            got.mem_counters(),
            "{what}: memory manager diverged"
        );
    }
}

#[test]
fn plan_smoke_preserves_results_across_workers() {
    assert_plan_equivalent(SMOKE, None);
}

#[test]
fn plan_smoke_injects_retries_and_corruption() {
    let p = plan(SMOKE);
    let ctx = run(&Sql::new(SqlConfig::small()), 8, Some(p));
    let fc = ctx.fault_counters();
    assert!(fc.retried_tasks > 0, "8% failure rate must retry: {fc:?}");
    assert!(fc.corrupt_chunks > 0, "3% corruption must trigger: {fc:?}");
    assert_eq!(fc.stragglers_applied, 1);
    assert_eq!(fc.nodes_lost, 0);
}

#[test]
fn plan_lossy_preserves_results_across_workers() {
    assert_plan_equivalent(LOSSY, None);
    assert_plan_equivalent(LOSSY, Some(TIGHT_MEM));
}

#[test]
fn plan_lossy_blacklists_the_node_on_every_workload() {
    let p = plan(LOSSY);
    for w in small_workloads() {
        let ctx = run(w.as_ref(), 1, Some(p.clone()));
        let fc = ctx.fault_counters();
        assert_eq!(fc.nodes_lost, 1, "{}: {fc:?}", w.name());
        assert!(fc.retried_tasks > 0, "{}: {fc:?}", w.name());
    }
}

#[test]
fn plan_lossy_mid_shuffle_recomputes_lost_map_outputs() {
    // Derive a loss time inside the last shuffle-producing stage from the
    // fault-free timeline, so the loss is applied at the consumer's stage
    // boundary while the producer's map outputs are still live — forcing
    // lineage recomputation rather than mere rescheduling.
    for w in small_workloads() {
        let clean = run(w.as_ref(), 1, None);
        let clean_table = byte_table(&clean);
        let target = clean
            .jobs()
            .iter()
            .flat_map(|j| j.stages.iter())
            .rfind(|s| s.shuffle_write_bytes > 0)
            .unwrap_or_else(|| panic!("{}: no shuffle-writing stage", w.name()));
        let at = 0.5 * (target.start + target.end);
        // Lose node 0: with 8 tasks on a 3×4-core cluster the scheduler
        // packs nodes 0 and 1, so node 0 always holds map outputs.
        let p = FaultPlan {
            node_loss: vec![NodeLoss { node: 0, at }],
            ..FaultPlan::default()
        };
        let ctx = run(w.as_ref(), 1, Some(p));
        let fc = ctx.fault_counters();
        assert_eq!(fc.nodes_lost, 1, "{}: {fc:?}", w.name());
        assert!(
            fc.recomputed_map_tasks > 0,
            "{}: map outputs on node 0 at t={at:.2} must be recomputed: {fc:?}",
            w.name()
        );
        assert_eq!(
            clean_table,
            byte_table(&ctx),
            "{}: recovery changed a byte table",
            w.name()
        );
    }
}

#[test]
fn invariants_inert_plan_is_bit_identical_to_no_plan() {
    let inert = FaultPlan::default();
    for w in small_workloads() {
        let clean = run(w.as_ref(), 2, None);
        let faulted = run(w.as_ref(), 2, Some(inert.clone()));
        let (clean_stages, clean_trace) = virtual_view(&clean);
        let (stages, trace) = virtual_view(&faulted);
        assert_eq!(
            clean_stages,
            stages,
            "{}: inert plan moved metrics",
            w.name()
        );
        assert_eq!(
            clean_trace,
            trace,
            "{}: inert plan moved the trace",
            w.name()
        );
    }
}

#[test]
fn invariants_speculation_never_double_counts_shuffle_bytes() {
    // A straggler plus speculative re-execution must not inflate any
    // shuffle byte table: speculative copies race, but only the winner's
    // output is committed.
    let straggler_only = FaultPlan::from_text("seed 9\nslow-node 1 6 1\n").unwrap();
    let with_speculation =
        FaultPlan::from_text("seed 9\nslow-node 1 6 1\nspeculation 1.5\n").unwrap();
    for w in small_workloads() {
        let base = run(w.as_ref(), 2, Some(straggler_only.clone()));
        let spec = run(w.as_ref(), 2, Some(with_speculation.clone()));
        assert_eq!(
            byte_table(&base),
            byte_table(&spec),
            "{}: speculation changed a byte table",
            w.name()
        );
    }
}

/// Runs a workload to its sorted result and finished context.
type ResultRun = fn(&EngineOptions) -> (String, Context);

/// SQL's sorted join output next to the finished context.
fn sql_result(opts: &EngineOptions) -> (String, Context) {
    let mut res = Sql::new(SqlConfig::small()).execute(opts, &WorkloadConf::new(), 1.0);
    res.joined
        .sort_by(|a, b| a.partial_cmp(b).expect("finite revenues"));
    (format!("{:?}", res.joined), res.ctx)
}

/// KMeans' centers and sorted histogram next to the finished context.
fn kmeans_result(opts: &EngineOptions) -> (String, Context) {
    let mut res = KMeans::new(KMeansConfig::small()).execute(opts, &WorkloadConf::new(), 1.0);
    res.histogram.sort_unstable();
    (format!("{:?} {:?}", res.centers, res.histogram), res.ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_plans_preserve_results_and_byte_tables(shape in arb_plan()) {
        let workloads: [(&str, ResultRun); 2] = [("sql", sql_result), ("kmeans", kmeans_result)];
        for (name, run) in workloads {
            let (clean_result, clean) = run(&options(1, None, None));
            let mut plan = shape.clone();
            plan.node_loss.iter_mut().for_each(|l| l.at *= clean.clock());
            plan.stragglers.iter_mut().for_each(|s| s.at *= clean.clock());
            prop_assert_eq!(plan.validate(3), Ok(()));
            let what = format!("{name} under\n{}", plan.to_text());
            let faulted = [1, 8].map(|workers| run(&options(workers, Some(plan.clone()), None)));
            for (result, ctx) in &faulted {
                prop_assert_eq!(&clean_result, result, "results, {}", what);
                prop_assert_eq!(byte_table(&clean), byte_table(ctx), "byte tables, {}", what);
            }
            let [(_, one), (_, eight)] = &faulted;
            prop_assert_eq!(one.clock().to_bits(), eight.clock().to_bits(), "clock, {}", what);
            prop_assert_eq!(virtual_view(one), virtual_view(eight), "virtual view, {}", what);
            prop_assert_eq!(one.fault_counters(), eight.fault_counters(), "faults, {}", what);
        }
    }
}
