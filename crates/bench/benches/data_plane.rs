//! Data-plane before/after benchmarks: the fused zero-copy narrow chain
//! vs op-at-a-time materialization, and the hash-once pre-sized bucketize
//! vs the seed's re-hashing one. The "before" kernels live in
//! `bench::dataplane` and reimplement the replaced seed code verbatim; the
//! "after" kernels are the engine's own.

use bench::dataplane::{seed_bucketize, seed_chain, ChainOp, FusedChain};
use criterion::{criterion_group, criterion_main, Criterion};
use engine::shuffle::bucketize;
use engine::{HashPartitioner, Key, Record, ReduceFn, Value};
use std::sync::Arc;

fn records(n: usize, keys: i64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new(Key::Int(i as i64 % keys), Value::Int(1)))
        .collect()
}

fn chain() -> Vec<ChainOp> {
    vec![
        ChainOp::Filter(Arc::new(|r: &Record| r.value.as_int() % 5 != 0)),
        ChainOp::Map(Arc::new(|r: &Record| {
            Record::new(r.key.clone(), Value::Int(r.value.as_int() + 1))
        })),
        ChainOp::Filter(Arc::new(|r: &Record| r.value.as_int() % 2 == 0)),
    ]
}

fn narrow_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("narrow-chain");
    let input = Arc::new(records(200_000, 1000));
    let ops = chain();
    let fused = FusedChain::new(&ops);
    assert_eq!(seed_chain(&input, &ops), fused.run(&input));
    g.bench_function("seed-copy-then-op-at-a-time-200k", |b| {
        b.iter(|| seed_chain(&input, &ops))
    });
    g.bench_function("fused-borrowed-single-pass-200k", |b| {
        b.iter(|| fused.run(&input))
    });
    g.finish();
}

fn bucketize_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("bucketize");
    let data = records(100_000, 2000);
    let part = HashPartitioner::new(300);
    let sum: ReduceFn = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
    g.bench_function("seed-no-combine-100k", |b| {
        b.iter(|| seed_bucketize(&data, &part, None))
    });
    g.bench_function("presized-no-combine-100k", |b| {
        b.iter(|| bucketize(&data, &part, None))
    });
    g.bench_function("seed-combine-100k", |b| {
        b.iter(|| seed_bucketize(&data, &part, Some(&sum)))
    });
    g.bench_function("hash-once-combine-100k", |b| {
        b.iter(|| bucketize(&data, &part, Some(&sum)))
    });
    g.finish();
}

criterion_group!(benches, narrow_chain, bucketize_kernels);
criterion_main!(benches);
