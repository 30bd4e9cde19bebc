//! A stage that reads a shuffle runs its tasks in blocks of adjacent
//! partitions whose size follows the task count and the pool's lanes. The
//! block walk must be invisible: the same results, against a reference
//! computed here without the engine, and every `StageMetrics` bit — read
//! and remote bytes, write skew, task durations, placements — whatever
//! the worker count, at every partition count, under a node loss and
//! under a memory budget that spills. The degraded runs compare one lane
//! against five, the widest spread of block sizes the matrix has.

use engine::{Context, EngineOptions, FaultPlan, Key, NodeLoss, PartitionerSpec, Record, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

#[path = "support/observed.rs"]
mod observed;

use observed::Observed;

const WORKERS: [usize; 4] = [1, 2, 3, 5];
const PARTITIONS: [usize; 5] = [1, 2, 7, 64, 1200];
const MAPS: usize = 6;

/// Records whose keys repeat across map tasks: ints, a hot int, strings.
fn input() -> Vec<Record> {
    (0..1200i64)
        .map(|i| {
            let key = match i % 5 {
                0 => Key::Int(7),
                1 | 2 => Key::Int((i * 37) % 211),
                3 => Key::str(&format!("k{}", i % 53)),
                _ => Key::Int(1000 + i % 97),
            };
            Record::new(key, Value::Int(i))
        })
        .collect()
}

fn sum() -> engine::ReduceFn {
    Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
}

/// The records, sorted by their rendering: the order partitions and
/// first-seen keys put them in is the engine's business.
fn sorted(records: Vec<Record>) -> Vec<String> {
    let mut rendered: Vec<String> = records.iter().map(|r| format!("{r:?}")).collect();
    rendered.sort();
    rendered
}

/// Each key's values in input order: what a shuffle whose reduce tasks
/// take their runs in map-task order groups under the key.
fn grouped(data: &[Record]) -> BTreeMap<Key, Vec<i64>> {
    let mut by_key: BTreeMap<Key, Vec<i64>> = BTreeMap::new();
    for r in data {
        by_key
            .entry(r.key.clone())
            .or_default()
            .push(r.value.as_int());
    }
    by_key
}

fn list(values: &[i64]) -> Value {
    Value::List(Arc::new(values.iter().map(|&v| Value::Int(v)).collect()))
}

/// What every job of [`run`] must return, computed without the engine.
fn reference() -> Vec<Vec<String>> {
    let data = input();
    let by_key = grouped(&data);
    let sums = by_key
        .iter()
        .map(|(k, vs)| Record::new(k.clone(), Value::Int(vs.iter().sum())));
    let groups = by_key
        .iter()
        .map(|(k, vs)| Record::new(k.clone(), list(vs)));
    let mut pairs = Vec::new();
    for (k, vs) in &by_key {
        for &l in vs {
            for &r in vs {
                let pair = Value::Pair(Box::new(Value::Int(l)), Box::new(Value::Int(r)));
                pairs.push(Record::new(k.clone(), pair));
            }
        }
    }
    let cogroups = by_key.iter().map(|(k, vs)| {
        let sum = list(&[vs.iter().sum()]);
        Record::new(k.clone(), Value::Pair(Box::new(sum), Box::new(list(vs))))
    });
    vec![
        sorted(sums.collect()),
        sorted(groups.collect()),
        sorted(data.clone()),
        sorted(pairs),
        sorted(cogroups.collect()),
    ]
}

/// One context, five jobs at `p` partitions: a hash `reduce_by_key`, a
/// range `group_by_key`, a `repartition`, a self-join (one shuffle read
/// twice by one stage) and a co-group whose left side is a cached,
/// co-partitioned aggregate.
fn run(opts: &EngineOptions, p: usize) -> Observed {
    let mut ctx = Context::new(opts.clone());
    let src = ctx.parallelize(input(), MAPS, "src");
    let (hash, range) = (
        Some(PartitionerSpec::hash(p)),
        Some(PartitionerSpec::range(p)),
    );
    let sums = ctx.reduce_by_key(src, sum(), hash, 1e-6, "sums");
    let groups = ctx.group_by_key(src, range, 1e-6, "groups");
    let moved = ctx.repartition(src, hash, "moved");
    let pairs = ctx.join(src, src, hash, 1e-6, "pairs");
    ctx.cache(sums);
    let cogroups = ctx.co_group(sums, src, hash, 1e-6, "cogroups");
    let results: Vec<Vec<String>> = [sums, groups, moved, pairs, cogroups]
        .into_iter()
        .map(|rdd| sorted(ctx.collect(rdd, "job")))
        .collect();
    Observed::of(&ctx, format!("{results:?}"))
}

fn options(workers: usize) -> EngineOptions {
    EngineOptions {
        cluster: simcluster::uniform_cluster(3, 4, 2.0),
        workers,
        ..EngineOptions::default()
    }
}

#[test]
fn blocks_of_any_size_read_every_partition_in_map_order() {
    let want = format!("{:?}", reference());
    for p in PARTITIONS {
        let clean = run(&options(1), p);
        assert_eq!(clean.results, want, "P={p}: results");
        // A node dies halfway through the run; a budget spills.
        let half = f64::from_bits(clean.clock_bits) / 2.0;
        let lossy = |workers| EngineOptions {
            faults: Some(FaultPlan {
                node_loss: vec![NodeLoss { node: 1, at: half }],
                ..FaultPlan::default()
            }),
            ..options(workers)
        };
        let tight = |workers| EngineOptions {
            executor_mem: Some(16 * 1024),
            ..options(workers)
        };
        let lossy_one = run(&lossy(1), p);
        assert_eq!(lossy_one.faults.nodes_lost, 1, "P={p}: the node is lost");
        assert_eq!(lossy_one.results, want, "P={p}: results under a node loss");
        let tight_one = run(&tight(1), p);
        assert!(tight_one.mem.spills > 0, "P={p}: the budget spills");
        assert_eq!(tight_one.results, want, "P={p}: results under a budget");
        for &workers in &WORKERS[1..] {
            let what = format!("P={p}, {workers} workers");
            clean.assert_identical(&run(&options(workers), p), &what);
        }
        let five = |how: &str| format!("P={p}, 5 workers, {how}");
        lossy_one.assert_identical(&run(&lossy(5), p), &five("a node lost"));
        tight_one.assert_identical(&run(&tight(5), p), &five("spilling"));
    }
}
