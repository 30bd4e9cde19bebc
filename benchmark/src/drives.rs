//! Layer drives: the benchmark calls one layer's production function
//! directly, on inputs shaped like the workload (its partition count, its
//! records per task, the stage and task counts of its own runs), and times
//! that alone. Nothing here re-implements a kernel — every timed call is a
//! `pub fn` of the crate the metric is named after.

use crate::stats::{fit_two, median, median_secs, Line};
use crate::suites::{Env, Mode, RunFacts, StageShape};
use chopper::{ReplanOptions, StageModel, Workload as _, WorkloadDb};
use engine::shuffle::{
    bucketize_columnar, bucketize_owned_in, JoinMerge, ReduceMerge, TaskArena, TaskBuckets,
};
use engine::stage::plan_job;
use engine::{
    ColumnBatch, Context, EngineOptions, HashPartitioner, Key, Partitioner, RangePartitioner, Rdd,
    Record, ReduceFn, ReplanInput, StageKind, TraceSink, Value, WorkerPool,
};
use jobserver::{JobRequest, JobTrace, TenantRuntime};
use numeric::XorShift64;
use simcluster::{ClusterSpec, Simulation, TaskSpec, Topology};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::{PointGen, SkewAgg, SkewAggConfig, SqlConfig, TableGen};

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// `n` rows of the sql workload's map-task output: generated `orders`
/// rows projected to `(key, amount)`, as the workload's own projection
/// leaves them before the shuffle write.
fn sql_map_output(seed: u64, n: u64) -> Vec<Record> {
    let cfg = SqlConfig::paper();
    TableGen::new(cfg.keys, cfg.zipf, cfg.payload, cfg.seed ^ seed)
        .partition(n, 0, 1)
        .into_iter()
        .map(|r| match r.value {
            Value::Pair(amount, _) => Record::new(r.key, Value::Float(amount.as_float())),
            other => panic!("malformed row {other:?}"),
        })
        .collect()
}

/// `Context::new` + drop, µs.
pub fn context_new_us(opts: &EngineOptions) -> f64 {
    1e6 * median_secs(31, || secs(|| drop(black_box(Context::new(opts.clone())))))
}

/// `stage::plan_job` of a finished context's last RDD, µs.
pub fn plan_job_us(ctx: &Context) -> f64 {
    let graph = ctx.graph();
    let last = Rdd(graph.len() - 1);
    let default_parallelism = ctx.options().default_parallelism;
    let materialized = HashMap::new();
    1e6 * median_secs(101, || {
        secs(|| {
            black_box(plan_job(
                graph,
                last,
                ctx.conf(),
                default_parallelism,
                &materialized,
            ));
        })
    })
}

pub struct PartitionerDrive {
    pub range_build_us: f64,
    pub assign_ns_per_key: f64,
}

/// `RangePartitioner::from_sample` at the workload's P, and `partition`
/// per key through the bounds it built.
pub fn partitioner(seed: u64, p: usize) -> PartitionerDrive {
    const KEYS: u64 = 50_000;
    let keys: Vec<Key> = sql_map_output(seed, KEYS)
        .into_iter()
        .map(|r| r.key)
        .collect();
    let range_build_us = 1e6
        * median_secs(7, || {
            secs(|| {
                black_box(RangePartitioner::from_sample(keys.iter(), p, seed));
            })
        });
    let part = RangePartitioner::from_sample(keys.iter(), p, seed);
    let assign_s = median_secs(7, || {
        secs(|| {
            let mut acc = 0usize;
            for k in &keys {
                acc = acc.wrapping_add(part.partition(k));
            }
            black_box(acc);
        })
    });
    PartitionerDrive {
        range_build_us,
        assign_ns_per_key: 1e9 * assign_s / KEYS as f64,
    }
}

pub struct ShuffleDrive {
    /// `bucketize_owned_in` (row path, no combine), seconds per record.
    pub bucketize_rows: Line,
    /// `bucketize_columnar`, seconds per record.
    pub bucketize_cols: Line,
    /// `ColumnBatch::from_records_typed`, seconds per record.
    pub batch_build: Line,
    /// `ReduceMerge` + `JoinMerge` fed P buckets through `push_bucket`,
    /// seconds per record pushed.
    pub merge: Line,
    /// The bucketize and the merge of a task that has no records: all
    /// that is left is the cost of P buckets. Measured directly, because
    /// a two-point intercept close to zero is mostly cache noise.
    pub bucketize_empty_s: f64,
    pub merge_empty_s: f64,
}

fn sum_floats() -> ReduceFn {
    Arc::new(|a: &Value, b: &Value| Value::Float(a.as_float() + b.as_float()))
}

/// One reduce task and one join task, each fed the P buckets one map task
/// wrote. The reduce folds `rows` (repeated keys); the join matches
/// `totals` (one record per key, as sql's aggregates are) against itself,
/// once from row buckets and once from columnar ones.
fn merge_secs(rows: &TaskBuckets, totals_rows: &TaskBuckets, totals_cols: &TaskBuckets) -> f64 {
    secs(|| {
        let mut reduce = ReduceMerge::new(sum_floats());
        for b in &rows.buckets {
            reduce.push_bucket(b);
        }
        let mut join = JoinMerge::new();
        for b in &totals_rows.buckets {
            join.push_bucket(b, true);
        }
        join.seal_left();
        for b in &totals_cols.buckets {
            join.push_bucket(b, false);
        }
        black_box((reduce.finish(), join.finish()));
    })
}

/// Times the shuffle kernels on one sql map-task output of the size a task
/// has at this P and on one four times larger — two points, so a
/// per-record slope — and on an empty one for the per-task cost.
pub fn shuffle(seed: u64, p: usize) -> ShuffleDrive {
    const REPS: usize = 15;
    let per_task = (SqlConfig::paper().orders / p as u64).max(64);
    let part = HashPartitioner::new(p);
    let mut arena = TaskArena::default();
    let mut points: [Vec<(f64, f64)>; 4] = Default::default();
    let mut empty = (0.0, 0.0);
    for n in [0, per_task, 4 * per_task] {
        let records = sql_map_output(seed, n);
        let rows_s = median_secs(REPS, || {
            let owned = records.clone();
            secs(|| {
                black_box(bucketize_owned_in(owned, &part, None, &mut arena));
            })
        });
        let (rows, _) = bucketize_owned_in(records.clone(), &part, None, &mut arena);
        let (totals, _) = {
            let mut reduce = ReduceMerge::new(sum_floats());
            reduce.push_slice(&records);
            reduce.finish()
        };
        let (totals_rows, _) = bucketize_owned_in(totals.clone(), &part, None, &mut arena);
        let (totals_cols, _) = bucketize_columnar(&totals, &part, &mut arena)
            .expect("sql aggregates have typed columns");
        let merge_s = median_secs(REPS, || merge_secs(&rows, &totals_rows, &totals_cols));
        if n == 0 {
            empty = (rows_s, merge_s);
            continue;
        }
        let cols_s = median_secs(REPS, || {
            secs(|| {
                black_box(bucketize_columnar(&records, &part, &mut arena));
            })
        });
        let build_s = median_secs(REPS, || {
            secs(|| {
                black_box(ColumnBatch::from_records_typed(&records));
            })
        });
        points[0].push((n as f64, rows_s));
        points[1].push((n as f64, cols_s));
        points[2].push((n as f64, build_s));
        points[3].push(((n as usize + 2 * totals.len()) as f64, merge_s));
    }
    let line = |i: usize| fit_two(points[i][0], points[i][1]);
    ShuffleDrive {
        bucketize_rows: line(0),
        bucketize_cols: line(1),
        batch_build: line(2),
        merge: line(3),
        bucketize_empty_s: empty.0,
        merge_empty_s: empty.1,
    }
}

/// `WorkerPool::map(P, no-op)`, µs per item.
pub fn pool_dispatch_us_per_item(workers: usize, p: usize) -> f64 {
    let pool = WorkerPool::new(workers);
    let per_map = median_secs(201, || {
        secs(|| {
            black_box(pool.map(p, |i| i));
        })
    });
    1e6 * per_map / p as f64
}

/// Task specs with the shape of an executed stage: as many tasks, each as
/// long, reading, fetching and writing its share of the stage's bytes.
fn task_specs(stage: &StageShape, cluster: &ClusterSpec) -> Vec<TaskSpec> {
    let n = stage.task_durations.len().max(1) as u64;
    let nodes = cluster.num_nodes() as u64;
    let fetch_share = stage.shuffle_read_bytes / n / nodes;
    stage
        .task_durations
        .iter()
        .map(|&d| TaskSpec {
            compute_cost: d * cluster.nodes[0].speed,
            local_read_bytes: if stage.kind == StageKind::Source {
                stage.input_bytes / n
            } else {
                0
            },
            fetches: if fetch_share > 0 {
                (0..nodes as usize)
                    .map(|node| (node, fetch_share))
                    .collect()
            } else {
                Vec::new()
            },
            write_bytes: stage.shuffle_write_bytes / n,
            memory_bytes: stage.input_bytes / n,
            fetch_chunks: stage.parent_tasks,
            ..TaskSpec::default()
        })
        .collect()
}

pub struct ReplayDrive {
    pub replay_s: f64,
    pub us_per_task: f64,
    pub rack_us_per_task: f64,
    /// Discrete events the rack replay processed (the flat path is closed
    /// form and counts none).
    pub events: u64,
}

/// The rack topology the rack replay and the fabric churn run on:
/// `rack:2x3:4`, room for the paper's five nodes.
const RACKS: usize = 2;
const HOSTS: usize = 3;
const OVERSUB: f64 = 4.0;
const RACK: Topology = Topology::Rack {
    racks: RACKS,
    hosts: HOSTS,
    oversub: OVERSUB,
};

/// `Simulation::run_stage` over every stage the traced pass executed,
/// on the flat fabric and again under `rack:2x3:4` (through `netsim`).
pub fn replay(cluster: &ClusterSpec, runs: &[&RunFacts]) -> ReplayDrive {
    let stages: Vec<&StageShape> = runs.iter().flat_map(|r| &r.stages).collect();
    let tasks: usize = stages.iter().map(|s| s.task_durations.len()).sum();
    if tasks == 0 {
        return ReplayDrive {
            replay_s: 0.0,
            us_per_task: 0.0,
            rack_us_per_task: 0.0,
            events: 0,
        };
    }
    let run = |cluster: ClusterSpec| {
        let specs: Vec<Vec<TaskSpec>> = stages
            .iter()
            .map(|s| task_specs(s, &cluster))
            .filter(|s| !s.is_empty())
            .collect();
        let mut sim = Simulation::new(cluster);
        let s = secs(|| {
            for stage in &specs {
                black_box(sim.run_stage(stage));
            }
        });
        (s, sim.events_processed())
    };
    let flat_s = median_secs(3, || run(cluster.clone()).0);
    let (rack_s, events) = run(cluster.clone().with_topology(RACK));
    ReplayDrive {
        replay_s: flat_s,
        us_per_task: 1e6 * flat_s / tasks as f64,
        rack_us_per_task: 1e6 * rack_s / tasks as f64,
        events,
    }
}

pub struct NetsimDrive {
    pub flow_events_per_s: f64,
    pub queue_events_per_s: f64,
}

/// `Network` start/complete churn on the `rack:2x3:4` fabric with up to P
/// fetches in flight, and `EventQueue` push/pop churn.
pub fn netsim(seed: u64, p: usize) -> NetsimDrive {
    let nic = 1.25e9;
    let mut net = netsim::Network::new();
    let nics: Vec<_> = (0..RACKS * HOSTS).map(|_| net.add_link(nic)).collect();
    let rack_cap = HOSTS as f64 * nic / OVERSUB;
    let ups: Vec<_> = (0..RACKS).map(|_| net.add_link(rack_cap)).collect();
    let downs: Vec<_> = (0..RACKS).map(|_| net.add_link(rack_cap)).collect();
    let in_flight = p.clamp(8, 512);
    let mut rng = XorShift64::new(seed);
    let flow_s = secs(|| {
        let mut completed = 0;
        while completed < 20_000 {
            while net.active_flows() < in_flight {
                let dst = rng.next_below(nics.len() as u64) as usize;
                let src_rack = rng.next_below(RACKS as u64) as usize;
                let bytes = 1.0 + rng.next_below(4_000_000) as f64;
                let path = if src_rack == dst / HOSTS {
                    vec![nics[dst]]
                } else {
                    vec![ups[src_rack], downs[dst / HOSTS], nics[dst]]
                };
                net.start_flow(path, bytes);
            }
            for _ in 0..in_flight / 2 {
                net.pop_completion();
                completed += 1;
            }
        }
        net.drain();
    });
    let stats = net.stats();

    let mut queue: netsim::EventQueue<u64> = netsim::EventQueue::with_capacity(1024);
    let mut ops = 0u64;
    let queue_s = secs(|| {
        let mut t = 0.0;
        while ops < 1_000_000 {
            for _ in 0..64 {
                t += rng.next_below(1024) as f64 * 1e-6;
                queue.push(t, ops);
                ops += 1;
            }
            while queue.len() > in_flight {
                black_box(queue.pop());
                ops += 1;
            }
        }
    });
    NetsimDrive {
        flow_events_per_s: (stats.events_scheduled + stats.events_processed) as f64 / flow_s,
        queue_events_per_s: ops as f64 / queue_s,
    }
}

pub struct DatagenDrive {
    pub points_per_s: f64,
    pub rows_per_s: f64,
}

/// `PointGen::partition` and `TableGen::partition` over all P partitions
/// of a 100k-record input.
pub fn datagen(seed: u64, p: usize) -> DatagenDrive {
    const N: u64 = 100_000;
    let kmeans = workloads::KMeansConfig::paper();
    let points = PointGen::new(kmeans.k, kmeans.dim, 2.0, kmeans.seed ^ seed);
    let sql = SqlConfig::paper();
    let rows = TableGen::new(sql.keys, sql.zipf, sql.payload, sql.seed ^ seed);
    let points_s = secs(|| {
        for part in 0..p {
            black_box(points.partition(N, part, p));
        }
    });
    let rows_s = secs(|| {
        for part in 0..p {
            black_box(rows.partition(N, part, p));
        }
    });
    DatagenDrive {
        points_per_s: N as f64 / points_s,
        rows_per_s: N as f64 / rows_s,
    }
}

pub struct SpeedupDrive {
    pub workers: f64,
    pub pipeline: f64,
    pub batch: f64,
}

/// `sql` at the workload's P with one option flipped at a time, against
/// the same run under default options: wall(flipped) / wall(default), so a
/// ratio above 1 means the default is the faster side. `default_s` is the
/// default run's time where the timed passes already have it. Returns the
/// last finished context too, for [`plan_job_us`].
pub fn speedups(env: &Env, p: usize, default_s: Option<f64>) -> (SpeedupDrive, Context) {
    let base = EngineOptions {
        default_parallelism: p,
        ..env.engine_options(&TraceSink::disabled())
    };
    let sql = env.sql();
    let time = |opts: EngineOptions| {
        let t = Instant::now();
        let ctx = sql.run_full(&opts, &engine::WorkloadConf::new());
        (t.elapsed().as_secs_f64(), ctx)
    };
    let default_s = default_s.unwrap_or_else(|| time(base.clone()).0);
    let run = |opts: EngineOptions| {
        let (s, ctx) = time(opts);
        (s / default_s, ctx)
    };
    let (workers, _) = run(EngineOptions {
        workers: 1,
        ..base.clone()
    });
    let (pipeline, _) = run(EngineOptions {
        pipeline: false,
        ..base.clone()
    });
    let (batch, ctx) = run(EngineOptions {
        batch: false,
        ..base
    });
    let drive = SpeedupDrive {
        workers,
        pipeline,
        batch,
    };
    (drive, ctx)
}

pub struct ChopperDrive {
    pub fit_us: f64,
    pub plan_ms: f64,
    pub replan_us: f64,
    pub json_roundtrip_ms: f64,
    pub db_bytes: u64,
}

/// The optimizer's own steps on the database a traced `compare` trained:
/// `StageModel::fit` per (stage, partitioner), `Autotuner::plan`, the
/// database's JSON round trip — and `chopper::replan` on the actuals a
/// skewed run hands its re-plan hook.
pub fn chopper(env: &Env, db: &WorkloadDb) -> ChopperDrive {
    let sql = env.sql();
    let record = db.workload(sql.name()).expect("trained sql record");
    let slots: Vec<_> = record
        .reference_run()
        .expect("reference run")
        .dag
        .iter()
        .flat_map(|s| {
            [
                engine::PartitionerKind::Hash,
                engine::PartitionerKind::Range,
            ]
            .map(|kind| record.observations(s.signature, kind))
        })
        .filter(|obs| !obs.is_empty())
        .collect();
    let fit_s = median_secs(15, || {
        secs(|| {
            for obs in &slots {
                black_box(StageModel::fit(obs));
            }
        })
    });
    let tuner = env.tuner(Mode::Default, &TraceSink::disabled());
    let plan_s = median_secs(5, || {
        secs(|| {
            black_box(tuner.plan(&sql, db));
        })
    });
    let json = db.to_json();
    let json_s = median_secs(5, || {
        secs(|| {
            black_box(WorkloadDb::from_json(&db.to_json()).expect("db json parses"));
        })
    });

    // The re-planner only searches when a stage's written buckets are hot;
    // skewagg at its own partition count is the shipped program whose are.
    // A capturing hook records what the engine hands it and changes
    // nothing.
    let mut cfg = SkewAggConfig::paper();
    cfg.seed ^= env.seed;
    let captured: Arc<Mutex<Vec<ReplanInput>>> = Arc::default();
    let hook_store = Arc::clone(&captured);
    let opts = EngineOptions {
        default_parallelism: cfg.partitions,
        replan: Some(Arc::new(move |input: &ReplanInput| {
            hook_store.lock().expect("capture lock").push(input.clone());
            None
        })),
        ..env.engine_options(&TraceSink::disabled())
    };
    SkewAgg::new(cfg).run_full(&opts, &engine::WorkloadConf::new());
    let inputs = captured.lock().expect("capture lock").clone();
    let replan_opts = ReplanOptions::default();
    let replan_s = median_secs(15, || {
        secs(|| {
            for input in &inputs {
                black_box(chopper::replan(input, &replan_opts));
            }
        })
    });
    ChopperDrive {
        fit_us: 1e6 * fit_s / slots.len().max(1) as f64,
        plan_ms: 1e3 * plan_s,
        replan_us: 1e6 * replan_s / inputs.len().max(1) as f64,
        json_roundtrip_ms: 1e3 * json_s,
        db_bytes: json.len() as u64,
    }
}

pub struct JobsDrive {
    pub cold_us: f64,
    pub warm_us: f64,
    pub trace_roundtrip_ms: f64,
    /// The runtime the requests ran on, for [`plan_job_us`] and the
    /// replay drive.
    pub runtime: TenantRuntime,
}

/// `TenantRuntime::run` of the same request twice — first with the
/// tenant's dataset cache cold, then warm — over the first requests of the
/// trace that differ in dataset; and the trace file's text round trip.
pub fn jobs(trace: &JobTrace, opts: EngineOptions) -> JobsDrive {
    let mut runtime = TenantRuntime::new(opts);
    let mut seen = Vec::new();
    let distinct: Vec<&JobRequest> = trace
        .jobs
        .iter()
        .filter(|j| {
            let key = (j.kind, j.scale.to_bits(), j.seed);
            let new = !seen.contains(&key);
            seen.push(key);
            new
        })
        .take(24)
        .collect();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for req in distinct {
        cold.push(secs(|| {
            black_box(runtime.run(req));
        }));
        warm.push(secs(|| {
            black_box(runtime.run(req));
        }));
    }
    let roundtrip_s = median_secs(5, || {
        secs(|| {
            black_box(JobTrace::from_text(&trace.to_text()).expect("trace text parses"));
        })
    });
    JobsDrive {
        cold_us: 1e6 * median(&cold),
        warm_us: 1e6 * median(&warm),
        trace_roundtrip_ms: 1e3 * roundtrip_s,
        runtime,
    }
}
