//! What a workload computes is a function of its program and data, and
//! what the virtual clock records of it a function of those and the
//! simulated cluster — never of the host. Each row of [`ROWS`] flips one
//! option on every small workload and names what the flip keeps: every
//! bit, or the results and byte tables. Beyond the
//! shipped fault plans, the differential harness draws options for SQL and
//! k-means, generated plans among them. The test after it checks what no
//! flip shows: a fault plan retries, loses and blacklists a node, and
//! recomputes the map outputs the loss took.

use engine::{Context, EngineOptions, FaultPlan, NodeLoss};
use engine::{TraceSink, WorkloadConf};
use observed::Observed;
use simcluster::{uniform_cluster, Topology};
use workloads::{KMeans, KMeansConfig, LogReg, LogRegConfig, Pca, PcaConfig};
use workloads::{SkewAgg, SkewAggConfig, Sql, SqlConfig};

#[path = "../../engine/tests/support/dags.rs"]
mod dags;
#[path = "../../engine/tests/support/observed.rs"]
mod observed;
/// The evaluator the harness's program property compares against.
#[allow(dead_code)]
#[path = "../../engine/tests/support/oracle.rs"]
mod oracle;
#[path = "../../engine/tests/support/plans.rs"]
mod plans;

const SMOKE: &str = include_str!("../../../plans/plan_smoke.plan");
const LOSSY: &str = include_str!("../../../plans/plan_lossy.plan");
const STRAGGLER: &str = "seed 9\nslow-node 1 6 1\n";
const SPECULATING: &str = "seed 9\nslow-node 1 6 1\nspeculation 1.5\n";
const ONE_RACK: Topology = Topology::Rack {
    racks: 1,
    hosts: 3,
    oversub: 1.0,
};
/// Small enough that every small workload spills.
const TIGHT: Option<u64> = Some(8 * 1024);

fn plan(text: &str) -> Option<FaultPlan> {
    Some(FaultPlan::from_text(text).expect("plan parses"))
}

/// A workload run to its rendered result and its finished context.
type Run = fn(&EngineOptions) -> (String, Context);

const WORKLOADS: [(&str, Run); 5] = [
    ("kmeans", |o| {
        let mut res = KMeans::new(KMeansConfig::small()).execute(o, &WorkloadConf::new(), 1.0);
        res.histogram.sort_unstable();
        (format!("{:?} {:?}", res.centers, res.histogram), res.ctx)
    }),
    ("pca", |o| {
        let res = Pca::new(PcaConfig::small()).execute(o, &WorkloadConf::new(), 1.0);
        let result = format!("{:?} {:?} {:?}", res.mean, res.components, res.eigenvalues);
        (result, res.ctx)
    }),
    ("sql", |o| {
        let mut res = Sql::new(SqlConfig::small()).execute(o, &WorkloadConf::new(), 1.0);
        res.joined
            .sort_by(|a, b| a.partial_cmp(b).expect("finite revenues"));
        (format!("{:?}", res.joined), res.ctx)
    }),
    ("logreg", |o| {
        let res = LogReg::new(LogRegConfig::small()).execute(o, &WorkloadConf::new(), 1.0);
        (format!("{:?} {:?}", res.weights, res.accuracy), res.ctx)
    }),
    ("skewagg", |o| {
        let res = SkewAgg::new(SkewAggConfig::small()).execute(o, &WorkloadConf::new(), 1.0);
        (format!("{:?} {:?}", res.hot_table, res.freq_table), res.ctx)
    }),
];

fn observe(run: Run, opts: &EngineOptions) -> Observed {
    let (result, ctx) = run(opts);
    Observed::of(&ctx, result)
}

/// A change to the options.
type Set = fn(&mut EngineOptions);

/// Three 4-core nodes, P = 8, one worker, traced, then `set`.
fn options(set: Set) -> EngineOptions {
    let mut opts = EngineOptions {
        cluster: uniform_cluster(3, 4, 2.0),
        default_parallelism: 8,
        workers: 1,
        trace: TraceSink::enabled(),
        ..EngineOptions::default()
    };
    set(&mut opts);
    opts
}

/// What a flip keeps, checked on the runs before and after it.
type Keeps = fn(&Observed, &Observed, &str);
const BITS: Keeps = |a, b, what| a.assert_identical(b, what);
const DATA: Keeps = |a, b, what| a.assert_same_data(b, true, what);
/// A spilled side is read from disk instead: the shuffle bytes fetched
/// move, and nothing else that `DATA` holds.
const SPILLED_DATA: Keeps = |a, b, what| {
    assert!(b.mem.spills > 0, "{what}: no spill");
    a.assert_same_data(b, false, what)
};

/// One option flipped: its name, the flip, and what it keeps.
type Flip = (&'static str, Set, Keeps);

/// The flips, by the options they start from.
#[rustfmt::skip]
const ROWS: [(&str, Set, &[Flip]); 6] = [
    ("defaults", |_| {}, &[
        ("workers 1 → 8", |o| o.workers = 8, BITS),
        ("flat → one rack", |o| o.cluster = o.cluster.clone().with_topology(ONE_RACK), BITS),
        ("traced → untraced", |o| o.trace = TraceSink::disabled(), BITS),
        ("no plan → inert plan", |o| o.faults = Some(FaultPlan::default()), BITS),
        ("no budget → 1 TiB", |o| o.executor_mem = Some(1 << 40), BITS),
        ("no budget → tight", |o| o.executor_mem = TIGHT, SPILLED_DATA),
        ("no plan → smoke plan", |o| o.faults = plan(SMOKE), DATA),
        ("no plan → lossy plan", |o| o.faults = plan(LOSSY), DATA),
    ]),
    ("smoke plan", |o| o.faults = plan(SMOKE), &[
        ("workers 1 → 8", |o| o.workers = 8, BITS),
    ]),
    ("lossy plan", |o| o.faults = plan(LOSSY), &[
        ("workers 1 → 8", |o| o.workers = 8, BITS),
    ]),
    ("tight budget", |o| o.executor_mem = TIGHT, &[
        ("no plan → lossy plan", |o| o.faults = plan(LOSSY), DATA),
    ]),
    ("tight budget, lossy plan", |o| (o.executor_mem, o.faults) = (TIGHT, plan(LOSSY)), &[
        ("workers 1 → 8", |o| o.workers = 8, BITS),
    ]),
    ("a straggler", |o| o.faults = plan(STRAGGLER), &[
        ("speculation off → on", |o| o.faults = plan(SPECULATING), DATA),
    ]),
];

#[test]
fn every_flip_keeps_what_its_row_names() {
    for (from, base, flips) in ROWS {
        for (name, run) in WORKLOADS {
            let before = observe(run, &options(base));
            for &(row, flip, keeps) in flips {
                let mut flipped = options(base);
                flip(&mut flipped);
                let what = format!("{name}, from {from}: {row}");
                keeps(&before, &observe(run, &flipped), &what);
            }
        }
    }
}

/// Options drawn by the differential harness — workers, a tight budget, a generated fault plan, one rack,
/// co-partition scheduling, tracing — keep SQL's and k-means' results and
/// byte tables, and flipping workers, topology or tracing moves no bit.
#[test]
fn generated_plans_preserve_results_and_byte_tables() {
    for (name, run) in [WORKLOADS[0], WORKLOADS[2]] {
        dags::check_workload(name, 32, |opts| observe(run, opts));
    }
}

#[test]
fn fault_plans_retry_blacklist_the_lost_node_and_recompute() {
    let counters = |run: Run, faults| {
        let opts = EngineOptions {
            faults,
            ..options(|_| {})
        };
        run(&opts).1.fault_counters()
    };
    let smoke = counters(WORKLOADS[2].1, plan(SMOKE));
    let (retried, corrupt) = (smoke.retried_tasks, smoke.corrupt_chunks);
    assert!(retried > 0 && corrupt > 0, "no retry or refetch: {smoke:?}");
    assert_eq!((smoke.stragglers_applied, smoke.nodes_lost), (1, 0));
    for (name, run) in WORKLOADS {
        let lossy = counters(run, plan(LOSSY));
        assert_eq!(lossy.nodes_lost, 1, "{name}: {lossy:?}");
        assert!(lossy.retried_tasks > 0, "{name}: {lossy:?}");
        // Lose node 0 halfway through the last shuffle-writing stage of
        // the fault-free run: the loss lands at the consumer's stage
        // boundary while the producer's map outputs are live, so they are
        // recomputed through lineage, not merely rescheduled. Eight tasks
        // on three 4-core nodes pack nodes 0 and 1: node 0 holds outputs.
        let (result, clean) = run(&options(|_| {}));
        let stages = clean.all_stages();
        let last = stages.iter().rfind(|s| s.shuffle_write_bytes > 0);
        let last = last.expect("a shuffle-writing stage");
        let at = 0.5 * (last.start + last.end);
        let node_loss = vec![NodeLoss { node: 0, at }];
        let (lost_result, lost) = run(&EngineOptions {
            faults: Some(FaultPlan {
                node_loss,
                ..FaultPlan::default()
            }),
            ..options(|_| {})
        });
        let recomputed = lost.fault_counters().recomputed_map_tasks;
        assert!(recomputed > 0, "{name}: nothing recomputed");
        let (clean, lost) = (
            Observed::of(&clean, result),
            Observed::of(&lost, lost_result),
        );
        clean.assert_same_data(&lost, true, &format!("{name}: recovery"));
    }
}
