//! Tier-1 guard for the engine: `cargo test -q` at the repository root
//! runs only this package, so this is where a change to the executor has
//! to fail first. Two paper workloads at 1/20 scale, at a fat and a wide
//! partition count, ungoverned and under a tight memory budget: results,
//! per-stage byte tables and the job-end virtual clock must not depend on
//! the host worker count or the row/columnar layout, and the memory
//! budget must move nothing but the clock and where bytes are read from.
//! One more cell holds the simulator to its one network model: the flat
//! fabric and a single full-bisection rack are the same cluster. Another
//! composes the budget with a fault plan: a node is lost while the cached
//! input is live, so its partitions re-home through the memory manager.
//! The PCA cell covers the task shape the other two lack: a flat-map that
//! multiplies its input by the dimension and streams into a map-side
//! combine that keeps one record per matrix row.

use chopper_repro::engine::{Context, EngineOptions, FaultPlan, NodeLoss, WorkloadConf};
use chopper_repro::simcluster::Topology;
use chopper_repro::workloads::{KMeans, KMeansConfig, Pca, PcaConfig, Sql, SqlConfig};

const SCALE: f64 = 0.05;
/// Small enough that both workloads spill at either partition count.
const TIGHT_MEM: u64 = 8 * 1024;

fn options(workers: usize, batch: bool, partitions: usize, mem: Option<u64>) -> EngineOptions {
    EngineOptions {
        default_parallelism: partitions,
        workers,
        batch,
        executor_mem: mem,
        ..EngineOptions::default()
    }
}

/// What one run is compared on.
#[derive(Debug, PartialEq)]
struct Observed {
    /// The workload's typed result, sorted and rendered (`f64` `Debug` is
    /// a shortest round-trip form: distinct bits render distinctly).
    result: String,
    /// Per stage: tasks, records and bytes in and out, shuffle bytes
    /// written.
    byte_table: Vec<[u64; 6]>,
    /// Per stage, shuffle bytes fetched. Budget-dependent: a spilled
    /// co-partitioned join side is read from local disk instead.
    shuffle_read: Vec<u64>,
    clock_bits: u64,
    /// The simulator's books, rendered: per-stage span and task
    /// durations, IO counters, utilization trace.
    sim_books: String,
    spilled: bool,
    /// Cached partitions re-homed off a lost node.
    rehomed: u64,
}

fn observe(ctx: &Context, result: String) -> Observed {
    let mem = ctx.mem_counters();
    let stages = ctx.all_stages();
    Observed {
        result,
        byte_table: stages
            .iter()
            .map(|m| {
                [
                    m.num_tasks as u64,
                    m.input_records,
                    m.input_bytes,
                    m.output_records,
                    m.output_bytes,
                    m.shuffle_write_bytes,
                ]
            })
            .collect(),
        shuffle_read: stages.iter().map(|m| m.shuffle_read_bytes).collect(),
        clock_bits: ctx.clock().to_bits(),
        sim_books: format!(
            "{:?} {:?} {:?}",
            stages
                .iter()
                .map(|m| (m.start, m.end, &m.task_durations))
                .collect::<Vec<_>>(),
            ctx.sim().io_stats(),
            ctx.sim().trace().points()
        ),
        spilled: mem.spills + mem.evictions > 0,
        rehomed: ctx.fault_counters().replica_rehomed_partitions,
    }
}

fn sql(opts: &EngineOptions) -> Observed {
    let mut res = Sql::new(SqlConfig::paper()).execute(opts, &WorkloadConf::new(), SCALE);
    res.joined
        .sort_by(|a, b| a.partial_cmp(b).expect("finite revenues"));
    observe(&res.ctx, format!("{:?}", res.joined))
}

/// Runs k-means and returns its observation plus the virtual time at
/// which its first stage — the one that caches the input — ended.
fn kmeans_timed(opts: &EngineOptions) -> (Observed, f64) {
    // The paper layout thinned to what exercises the engine — the cached
    // input re-read by a preparation pass and two Lloyd iterations — with
    // short vectors, so an unoptimized build spends its time in the
    // executor rather than in distance arithmetic.
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
    (observe(&res.ctx, result), cached_at)
}

fn kmeans(opts: &EngineOptions) -> Observed {
    kmeans_timed(opts).0
}

fn pca(opts: &EngineOptions) -> Observed {
    let res = Pca::new(PcaConfig::paper()).execute(opts, &WorkloadConf::new(), SCALE);
    let result = format!("{:?} {:?} {:?}", res.mean, res.components, res.eigenvalues);
    observe(&res.ctx, result)
}

fn assert_layout_and_workers_do_not_matter(name: &str, run: fn(&EngineOptions) -> Observed) {
    for partitions in [8, 600] {
        let free = run(&options(1, false, partitions, None));
        assert!(!free.byte_table.is_empty(), "{name}: no stages ran");
        let tight = run(&options(1, false, partitions, Some(TIGHT_MEM)));
        assert!(
            tight.spilled,
            "{name} P={partitions}: the tight budget never engaged"
        );
        assert_eq!(free.result, tight.result, "{name} P={partitions}: budget");
        assert_eq!(free.byte_table, tight.byte_table, "{name} P={partitions}");
        for (mem, reference) in [(None, &free), (Some(TIGHT_MEM), &tight)] {
            for (workers, batch) in [(1, true), (8, false), (8, true)] {
                let got = run(&options(workers, batch, partitions, mem));
                assert_eq!(
                    &got, reference,
                    "{name} P={partitions} mem={mem:?} workers={workers} batch={batch}"
                );
            }
        }
    }
}

#[test]
fn sql_is_identical_across_workers_layout_and_budget() {
    assert_layout_and_workers_do_not_matter("sql", sql);
}

#[test]
fn kmeans_is_identical_across_workers_layout_and_budget() {
    assert_layout_and_workers_do_not_matter("kmeans", kmeans);
}

#[test]
fn pca_is_identical_across_workers_and_layout() {
    for partitions in [60, 1200] {
        let reference = pca(&options(1, false, partitions, None));
        assert_eq!(reference.byte_table.len(), 6, "P={partitions}: six stages");
        for (workers, batch) in [(1, true), (8, false), (8, true)] {
            assert_eq!(
                pca(&options(workers, batch, partitions, None)),
                reference,
                "pca P={partitions} workers={workers} batch={batch}"
            );
        }
    }
}

#[test]
fn kmeans_under_a_budget_survives_a_node_loss() {
    let (free, cached_at) = kmeans_timed(&options(1, false, 8, None));
    // Due as soon as the cached input exists: the loss is applied at the
    // next stage boundary, before the first re-read of the cache.
    let plan = FaultPlan {
        node_loss: vec![NodeLoss {
            node: 0,
            at: cached_at,
        }],
        ..FaultPlan::default()
    };
    let run = |workers, batch| {
        kmeans(&EngineOptions {
            faults: Some(plan.clone()),
            ..options(workers, batch, 8, Some(TIGHT_MEM))
        })
    };
    let reference = run(1, false);
    assert!(reference.spilled, "the tight budget never engaged");
    assert!(reference.rehomed > 0, "node 0 held no cached partition");
    assert_eq!(free.result, reference.result);
    assert_eq!(free.byte_table, reference.byte_table);
    for (workers, batch) in [(1, true), (8, false), (8, true)] {
        assert_eq!(
            run(workers, batch),
            reference,
            "workers={workers} batch={batch}"
        );
    }
}

#[test]
fn flat_is_the_one_rack_topology() {
    let flat = options(1, true, 600, None);
    let mut one_rack = flat.clone();
    one_rack.cluster = one_rack.cluster.with_topology(Topology::Rack {
        racks: 1,
        hosts: 5,
        oversub: 1.0,
    });
    assert_eq!(sql(&flat), sql(&one_rack));
}
