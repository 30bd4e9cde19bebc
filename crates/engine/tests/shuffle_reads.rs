//! Reduce tasks take their buckets out of the producer's table in place,
//! or clone bucket handles when the plan reads a shuffle more than once.
//! These tests *run* both cases — a self-join, a self-co-group and a
//! diamond over one reduced RDD — plus the wide-P case where most buckets
//! are empty, against hand-computed tables, and require bit-identical
//! results, byte tables and clocks across worker counts and layouts, with
//! and without a memory budget.

use engine::stage::plan_job;
use engine::{Context, EngineOptions, Key, PartitionerSpec, Rdd, Record, ReduceFn, Value};
use simcluster::uniform_cluster;
use std::collections::HashMap;
use std::sync::Arc;

fn options(workers: usize, batch: bool, executor_mem: Option<u64>) -> EngineOptions {
    EngineOptions {
        cluster: uniform_cluster(3, 4, 2.0),
        default_parallelism: 4,
        workers,
        batch,
        executor_mem,
        ..EngineOptions::default()
    }
}

fn sum() -> ReduceFn {
    Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
}

fn int(k: i64, v: Value) -> Record {
    Record::new(Key::Int(k), v)
}

fn key_of(r: &Record) -> i64 {
    match r.key {
        Key::Int(k) => k,
        ref other => panic!("integer keys only, got {other:?}"),
    }
}

fn pair(l: Value, r: Value) -> Value {
    Value::Pair(Box::new(l), Box::new(r))
}

/// Sorts records, and the values inside every list (their order is the
/// map-task order, which these tests do not pin).
fn sorted(records: Vec<Record>) -> Vec<Record> {
    fn canon(v: &Value) -> Value {
        match v {
            Value::Pair(a, b) => pair(canon(a), canon(b)),
            Value::List(vs) => {
                let mut vs: Vec<Value> = vs.iter().map(canon).collect();
                vs.sort_by_key(|v| format!("{v:?}"));
                Value::List(Arc::new(vs))
            }
            other => other.clone(),
        }
    }
    let mut out: Vec<Record> = records
        .iter()
        .map(|r| Record::new(r.key.clone(), canon(&r.value)))
        .collect();
    out.sort_by_key(|r| (r.key.clone(), format!("{:?}", r.value)));
    out
}

/// How often the job computing `rdd` reads its most-read shuffle.
fn max_shuffle_reads(ctx: &Context, rdd: Rdd) -> usize {
    let plan = plan_job(ctx.graph(), rdd, ctx.conf(), 4, &HashMap::new());
    (0..plan.shuffles.len())
        .map(|s| plan.shuffle_reads(s))
        .max()
        .unwrap_or(0)
}

type Results = Vec<Vec<Record>>;

/// Runs `program` under every configuration; all must agree with the
/// first on results and byte tables, and — per memory setting — on the
/// clock. Returns the agreed results.
fn run_everywhere(program: fn(&mut Context) -> Results) -> Results {
    let mut reference: Option<(Results, Vec<[u64; 5]>)> = None;
    for mem in [None, Some(256)] {
        let mut clock = None;
        for (workers, batch) in [(1, false), (1, true), (8, false), (8, true)] {
            let mut ctx = Context::new(options(workers, batch, mem));
            let results = program(&mut ctx);
            let table: Vec<[u64; 5]> = ctx
                .all_stages()
                .iter()
                .map(|m| {
                    [
                        m.num_tasks as u64,
                        m.input_records,
                        m.output_records,
                        m.shuffle_read_bytes,
                        m.shuffle_write_bytes,
                    ]
                })
                .collect();
            let what = format!("mem {mem:?}, workers {workers}, batch {batch}");
            let (ref_results, ref_table) =
                reference.get_or_insert_with(|| (results.clone(), table.clone()));
            assert_eq!(&results, ref_results, "{what}: results");
            assert_eq!(&table, ref_table, "{what}: byte table");
            let clock_bits = ctx.clock().to_bits();
            assert_eq!(
                clock_bits,
                *clock.get_or_insert(clock_bits),
                "{what}: clock"
            );
        }
    }
    reference.expect("at least one configuration ran").0
}

/// Six keys summed from twelve records, then re-keyed by parity, so each
/// key carries three values — key 0: {10, 14, 18}, key 1: {12, 16, 20}.
fn reduced_then_rekeyed(ctx: &mut Context) -> Rdd {
    let data: Vec<Record> = (0..12).map(|i| int(i % 6, Value::Int(2 + i))).collect();
    let src = ctx.parallelize(data, 3, "src");
    let reduced = ctx.reduce_by_key(src, sum(), None, 1e-6, "sums");
    ctx.map(
        reduced,
        Arc::new(|r: &Record| int(key_of(r) % 2, r.value.clone())),
        1e-6,
        "parity",
    )
}

const GROUPS: [(i64, [i64; 3]); 2] = [(0, [10, 14, 18]), (1, [12, 16, 20])];

fn multi_read_program(ctx: &mut Context) -> Results {
    let x = reduced_then_rekeyed(ctx);
    // Both sides of each come through one shuffle, read twice by one stage.
    let joined = ctx.join(x, x, None, 1e-6, "self-join");
    let cogrouped = ctx.co_group(x, x, None, 1e-6, "self-cogroup");
    // Two map stages over the same uncached reduced RDD: its shuffle is
    // read by two *stages*, the second after the first has finished.
    let y = reduced_then_rekeyed(ctx);
    let evens = ctx.filter(y, Arc::new(|r: &Record| key_of(r) == 0), 1e-6, "evens");
    let diamond = ctx.join(y, evens, None, 1e-6, "diamond");
    for rdd in [joined, cogrouped, diamond] {
        assert_eq!(max_shuffle_reads(ctx, rdd), 2, "plan shares no shuffle");
    }
    vec![
        sorted(ctx.collect(joined, "self-join")),
        sorted(ctx.collect(cogrouped, "self-cogroup")),
        sorted(ctx.collect(diamond, "diamond")),
    ]
}

#[test]
fn shuffles_read_twice_produce_the_hand_computed_tables() {
    let results = run_everywhere(multi_read_program);

    let cross = |k: i64, vals: [i64; 3]| -> Vec<Record> {
        vals.iter()
            .flat_map(|&l| {
                vals.iter()
                    .map(move |&r| int(k, pair(Value::Int(l), Value::Int(r))))
            })
            .collect()
    };
    let self_join: Vec<Record> = GROUPS.iter().flat_map(|&(k, v)| cross(k, v)).collect();
    assert_eq!(results[0], self_join, "self-join: 3×3 pairs per key");

    let list = |vals: [i64; 3]| Value::List(Arc::new(vals.map(Value::Int).to_vec()));
    let self_cogroup: Vec<Record> = GROUPS
        .iter()
        .map(|&(k, v)| int(k, pair(list(v), list(v))))
        .collect();
    assert_eq!(results[1], self_cogroup, "self-cogroup: both sides whole");

    let (k, v) = GROUPS[0];
    assert_eq!(results[2], cross(k, v), "diamond: only key 0 survives");
}

fn wide_program(ctx: &mut Context) -> Results {
    // Eight distinct keys over 64 partitions: at least 56 of every map
    // task's 64 buckets are empty.
    let data: Vec<Record> = (0..400).map(|i| int(i % 8, Value::Int(i))).collect();
    let src = ctx.parallelize(data, 5, "src");
    let mut out = Vec::new();
    for scheme in [PartitionerSpec::hash(64), PartitionerSpec::range(64)] {
        let summed = ctx.reduce_by_key(src, sum(), Some(scheme), 1e-6, "sum");
        out.push(sorted(ctx.collect(summed, "wide-sum")));
        let grouped = ctx.group_by_key(src, Some(scheme), 1e-6, "group");
        let sizes = ctx.map_values(
            grouped,
            Arc::new(|r: &Record| match &r.value {
                Value::List(vs) => Record::new(r.key.clone(), Value::Int(vs.len() as i64)),
                other => panic!("group_by_key yields lists, got {other:?}"),
            }),
            1e-6,
            "sizes",
        );
        out.push(sorted(ctx.collect(sizes, "wide-group")));
    }
    out
}

#[test]
fn wide_partition_counts_with_mostly_empty_buckets() {
    let results = run_everywhere(wide_program);
    // Key k holds k, k+8, …, k+392: fifty values summing to 50k + 9800.
    let sums: Vec<Record> = (0..8).map(|k| int(k, Value::Int(50 * k + 9800))).collect();
    let sizes: Vec<Record> = (0..8).map(|k| int(k, Value::Int(50))).collect();
    assert_eq!(results, vec![sums.clone(), sizes.clone(), sums, sizes]);
}
