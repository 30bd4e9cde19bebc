//! Tier-1 guard for the engine: `cargo test -q` at the repository root
//! runs only this package, so this is where a change to the executor has
//! to fail first. It runs the reference evaluator's own tests, a slice of
//! the differential property (`crates/engine/tests/differential.rs` runs
//! it in full), and three paper workloads at 1/20 scale; two more cells
//! hold the flat fabric to a one-rack topology, and compose a budget with
//! a node lost while the cache is live.

use chopper_repro::engine::{EngineOptions, FaultPlan, NodeLoss, WorkloadConf};
use chopper_repro::simcluster::Topology;
use chopper_repro::workloads::{KMeans, KMeansConfig, Pca, PcaConfig, Sql, SqlConfig};
use observed::Observed;

#[path = "../crates/engine/tests/support/dags.rs"]
mod dags;
#[path = "../crates/engine/tests/support/observed.rs"]
mod observed;
#[path = "../crates/engine/tests/support/oracle.rs"]
mod oracle;
#[path = "../crates/engine/tests/support/plans.rs"]
mod plans;

#[test]
fn generated_programs_match_the_reference_evaluator() {
    dags::check_cases("tier-1", 16);
}

const SCALE: f64 = 0.05;
/// Small enough that both workloads spill at either partition count.
const TIGHT: Option<u64> = Some(8 * 1024);

fn options(workers: usize, partitions: usize, mem: Option<u64>) -> EngineOptions {
    EngineOptions {
        default_parallelism: partitions,
        workers,
        executor_mem: mem,
        ..EngineOptions::default()
    }
}

fn sql(opts: &EngineOptions) -> Observed {
    let mut res = Sql::new(SqlConfig::paper()).execute(opts, &WorkloadConf::new(), SCALE);
    res.joined
        .sort_by(|a, b| a.partial_cmp(b).expect("finite revenues"));
    Observed::of(&res.ctx, format!("{:?}", res.joined))
}

/// K-means thinned to what exercises the engine — the cached input re-read
/// by a preparation pass and two Lloyd iterations, over short vectors —
/// and the virtual time its first stage, which caches the input, ended.
fn kmeans_timed(opts: &EngineOptions) -> (Observed, f64) {
    let cfg = KMeansConfig {
        dim: 4,
        prep_passes: 1,
        iterations: 2,
        ..KMeansConfig::paper()
    };
    let mut res = KMeans::new(cfg).execute(opts, &WorkloadConf::new(), SCALE);
    res.histogram.sort_unstable();
    let cached_at = res.ctx.all_stages()[0].end;
    let result = format!("{:?} {:?}", res.centers, res.histogram);
    (Observed::of(&res.ctx, result), cached_at)
}

fn kmeans(opts: &EngineOptions) -> Observed {
    kmeans_timed(opts).0
}

/// PCA's covariance pass is the task shape the other two lack: a flat-map
/// multiplying its input by the dimension into a map-side combine.
fn pca(opts: &EngineOptions) -> Observed {
    let res = Pca::new(PcaConfig::paper()).execute(opts, &WorkloadConf::new(), SCALE);
    let result = format!("{:?} {:?} {:?}", res.mean, res.components, res.eigenvalues);
    Observed::of(&res.ctx, result)
}

fn spilled(o: &Observed) -> bool {
    o.mem.spills + o.mem.evictions > 0
}

/// At each P, under each budget: the budget moves nothing but the clock
/// and where bytes are read from, and no worker count moves a bit.
fn assert_cells(
    name: &str,
    run: fn(&EngineOptions) -> Observed,
    p: [usize; 2],
    mem: &[Option<u64>],
) {
    for p in p {
        let references: Vec<Observed> = mem.iter().map(|&m| run(&options(1, p, m))).collect();
        for (&mem, reference) in mem.iter().zip(&references) {
            let what = format!("{name} P={p} mem={mem:?}");
            assert!(!reference.byte_table.is_empty(), "{what}: no stages ran");
            if mem.is_some() {
                assert!(spilled(reference), "{what}: the budget never engaged");
                references[0].assert_same_data(reference, false, &what);
            }
            let got = run(&options(8, p, mem));
            reference.assert_identical(&got, &format!("{what} workers=8"));
        }
    }
}

#[test]
fn sql_is_identical_across_workers_and_budget() {
    assert_cells("sql", sql, [8, 600], &[None, TIGHT]);
}

#[test]
fn kmeans_is_identical_across_workers_and_budget() {
    assert_cells("kmeans", kmeans, [8, 600], &[None, TIGHT]);
}

#[test]
fn pca_is_identical_across_workers() {
    assert_cells("pca", pca, [60, 1200], &[None]);
}

#[test]
fn kmeans_under_a_budget_survives_a_node_loss() {
    let (free, at) = kmeans_timed(&options(1, 8, None));
    // Due as soon as the input is cached: the loss is applied at the next
    // stage boundary, before the cache is re-read.
    let loss = NodeLoss { node: 0, at };
    let faults = Some(FaultPlan {
        node_loss: vec![loss],
        ..FaultPlan::default()
    });
    let run = |workers| {
        let opts = EngineOptions {
            faults: faults.clone(),
            ..options(workers, 8, TIGHT)
        };
        kmeans(&opts)
    };
    let reference = run(1);
    assert!(spilled(&reference), "the tight budget never engaged");
    let rehomed = reference.faults.replica_rehomed_partitions;
    assert!(rehomed > 0, "node 0 held no cached partition");
    free.assert_same_data(&reference, false, "node loss under a budget");
    reference.assert_identical(&run(8), "workers=8");
}

#[test]
fn flat_is_the_one_rack_topology() {
    let flat = options(1, 600, None);
    let mut one_rack = flat.clone();
    one_rack.cluster = one_rack.cluster.with_topology(Topology::Rack {
        racks: 1,
        hosts: 5,
        oversub: 1.0,
    });
    sql(&flat).assert_identical(&sql(&one_rack), "rack:1x5:1");
}
