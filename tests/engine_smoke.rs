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
//! combine that keeps one record per matrix row. The last test reaches
//! what no workload does — every reduce-side accumulator, `co_group`
//! included, and the adaptive split of a hot partition — and holds the
//! five wide operators to tables computed with plain `BTreeMap`s.

use chopper_repro::engine::{
    Context, EngineOptions, FaultPlan, Key, NodeLoss, PartitionerSpec, Rdd, Record, ReduceFn,
    Value, WorkloadConf,
};
use chopper_repro::simcluster::{uniform_cluster, Topology};
use chopper_repro::workloads::{KMeans, KMeansConfig, Pca, PcaConfig, Sql, SqlConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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

/// A job's output as sorted `(key, rendered value)` rows; the values of a
/// list are sorted first, so the order runs reached the merge in — which
/// the scheme, P and an adaptive split all move — does not show.
fn sorted_rows(ctx: &mut Context, rdd: Rdd, job: &str) -> Vec<(i64, String)> {
    fn ints(v: &Value) -> Vec<i64> {
        match v {
            Value::List(vs) => {
                let mut vs: Vec<i64> = vs.iter().map(Value::as_int).collect();
                vs.sort_unstable();
                vs
            }
            other => vec![other.as_int()],
        }
    }
    let mut rows: Vec<(i64, String)> = ctx
        .collect(rdd, job)
        .iter()
        .map(|r| {
            let (Key::Int(k), v) = (&r.key, &r.value) else {
                panic!("{job}: int key expected, got {r:?}")
            };
            let rendered = match v {
                Value::Pair(l, r) => format!("{:?} {:?}", ints(l), ints(r)),
                one => format!("{:?}", ints(one)),
            };
            (*k, rendered)
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn every_wide_operator_matches_a_btreemap_table() {
    // Forty left keys, one of them with half the records; thirty right
    // keys, twenty of which the left side has too.
    let left: Vec<(i64, i64)> = (0..3000)
        .map(|i| (if i % 2 == 0 { 27 } else { i / 2 % 40 }, i))
        .collect();
    let right: Vec<(i64, i64)> = (0..150).map(|i| (20 + i * 7 % 30, -i)).collect();
    let table = |pairs: &[(i64, i64)]| {
        let mut t: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for &(k, v) in pairs {
            t.entry(k).or_default().push(v);
        }
        t.values_mut().for_each(|vs| vs.sort_unstable());
        t
    };
    let (lt, rt) = (table(&left), table(&right));
    let none = Vec::new();
    let keys: BTreeSet<i64> = lt.keys().chain(rt.keys()).copied().collect();
    let rows = |mut rows: Vec<(i64, String)>| {
        rows.sort();
        rows
    };
    let want_sums = rows(
        lt.iter()
            .map(|(&k, vs)| (k, format!("{:?}", [vs.iter().sum::<i64>()])))
            .collect(),
    );
    let want_groups = rows(lt.iter().map(|(&k, vs)| (k, format!("{vs:?}"))).collect());
    let want_moved = rows(
        left.iter()
            .map(|&(k, v)| (k, format!("{:?}", [v])))
            .collect(),
    );
    let want_joined = rows(
        lt.iter()
            .flat_map(|(&k, ls)| {
                let rs = rt.get(&k).unwrap_or(&none);
                ls.iter()
                    .flat_map(move |l| rs.iter().map(move |r| (k, format!("{:?} {:?}", [l], [r]))))
            })
            .collect(),
    );
    let want_cogrouped = rows(
        keys.iter()
            .map(|k| {
                let (ls, rs) = (lt.get(k).unwrap_or(&none), rt.get(k).unwrap_or(&none));
                (*k, format!("{ls:?} {rs:?}"))
            })
            .collect(),
    );
    assert!(want_joined.len() > 1000 && want_cogrouped.len() == 50);

    let records = |pairs: &[(i64, i64)]| -> Vec<Record> {
        let record = |&(k, v): &(i64, i64)| Record::new(Key::Int(k), Value::Int(v));
        pairs.iter().map(record).collect()
    };
    let sum: ReduceFn = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
    let mut split_stages = 0;
    for workers in [1, 4] {
        for range in [false, true] {
            for p in [1, 4, 512] {
                let scheme = Some(if range {
                    PartitionerSpec::range(p)
                } else {
                    PartitionerSpec::hash(p)
                });
                let ctx = &mut Context::new(EngineOptions {
                    cluster: uniform_cluster(2, 2, 2.0),
                    default_parallelism: 3,
                    workers,
                    adaptive: true,
                    ..EngineOptions::default()
                });
                let l = ctx.parallelize(records(&left), 5, "left");
                let r = ctx.parallelize(records(&right), 3, "right");
                let sums = ctx.reduce_by_key(l, Arc::clone(&sum), scheme, 1e-6, "sums");
                let groups = ctx.group_by_key(l, scheme, 1e-6, "groups");
                let moved = ctx.repartition(l, scheme, "moved");
                let joined = ctx.join(l, r, scheme, 1e-6, "joined");
                let cogrouped = ctx.co_group(l, r, scheme, 1e-6, "cogrouped");
                let case = format!("workers={workers} range={range} P={p}");
                assert_eq!(sorted_rows(ctx, sums, "sums"), want_sums, "{case}");
                assert_eq!(sorted_rows(ctx, groups, "groups"), want_groups, "{case}");
                assert_eq!(sorted_rows(ctx, moved, "moved"), want_moved, "{case}");
                // Each side of a range-partitioned join draws its bounds from
                // its own key sample, so above P = 1 the sides are not
                // co-partitioned and matches go missing (ROADMAP item 8);
                // until then the table holds under hash schemes and at P = 1.
                if !range || p == 1 {
                    assert_eq!(sorted_rows(ctx, joined, "joined"), want_joined, "{case}");
                    let got = sorted_rows(ctx, cogrouped, "cogrouped");
                    assert_eq!(got, want_cogrouped, "{case}");
                }
                let reducers = ctx
                    .all_stages()
                    .into_iter()
                    .filter(|m| m.shuffle_read_bytes > 0);
                split_stages += reducers.filter(|m| m.num_tasks > p).count();
            }
        }
    }
    assert!(split_stages > 0, "no hot partition was ever split");
}
