//! Before/after kernels for the data-plane benchmarks.
//!
//! The executor rewrite replaced seed-era kernels: deep-copied task inputs
//! run through one materialized pass per narrow op, a bucketize that
//! re-hashed every key through `SipHash` twice, and reduce-side merges over
//! on-demand `SipHash` tables. The "before" functions here reimplement
//! those seed kernels verbatim so `cargo bench --bench data_plane` and
//! `repro -- dataplane` can quantify the current data plane against the
//! code it replaced, on identical inputs. Every "after" is the engine's own
//! `pub fn` — nothing here copies production code.

use engine::shuffle::TaskBuckets;
use engine::{
    batch_size, FilterFn, FlatMapFn, Key, MapFn, Partitioner, Rdd, RddGraph, Record, ReduceFn,
    Value,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The seed's map-side bucketize: `partition()` re-hashes every key, the
/// combine index re-hashes it a second time through `SipHash`, and buckets
/// grow on demand.
pub fn seed_bucketize(
    records: &[Record],
    partitioner: &dyn Partitioner,
    combine: Option<&ReduceFn>,
) -> (TaskBuckets, u64) {
    let p = partitioner.num_partitions();
    let mut combine_ops = 0u64;
    let buckets: Vec<Vec<Record>> = match combine {
        None => {
            let mut out: Vec<Vec<Record>> = vec![Vec::new(); p];
            for r in records {
                out[partitioner.partition(&r.key)].push(r.clone());
            }
            out
        }
        Some(f) => {
            let mut out: Vec<Vec<Record>> = vec![Vec::new(); p];
            let mut index: Vec<HashMap<engine::Key, usize>> = vec![HashMap::new(); p];
            for r in records {
                let b = partitioner.partition(&r.key);
                match index[b].get(&r.key) {
                    Some(&i) => {
                        let merged = f(&out[b][i].value, &r.value);
                        out[b][i].value = merged;
                        combine_ops += 1;
                    }
                    None => {
                        index[b].insert(r.key.clone(), out[b].len());
                        out[b].push(r.clone());
                    }
                }
            }
            out
        }
    };
    let bytes = buckets.iter().map(|b| batch_size(b)).collect();
    (
        TaskBuckets {
            buckets: buckets
                .into_iter()
                .map(|b| engine::shuffle::Bucket::Rows(Arc::new(b)))
                .collect(),
            bytes,
        },
        combine_ops,
    )
}

/// A narrow op for the chain kernels, in the engine's own closure types so
/// one chain drives both the seed copy and the production kernel.
pub enum ChainOp {
    Map(MapFn),
    Filter(FilterFn),
    FlatMap(FlatMapFn),
}

/// The seed's narrow-chain execution: deep-copy the task's input slice,
/// then materialize a fresh vector per op.
pub fn seed_chain(input: &[Record], ops: &[ChainOp]) -> Vec<Record> {
    let mut records = input.to_vec();
    for op in ops {
        records = match op {
            ChainOp::Map(f) => records.iter().map(|r| f(r)).collect(),
            ChainOp::Filter(f) => records.into_iter().filter(|r| f(r)).collect(),
            ChainOp::FlatMap(f) => records.iter().flat_map(|r| f(r)).collect(),
        };
    }
    records
}

/// `ops` as a lineage the executor can run: borrow the input and stream
/// each record through the whole chain in one pass, cloning only records
/// that survive to the output.
pub struct FusedChain {
    graph: RddGraph,
    chain: Vec<Rdd>,
}

impl FusedChain {
    pub fn new(ops: &[ChainOp]) -> FusedChain {
        let mut graph = RddGraph::new();
        let mut cur = graph.parallelize(Vec::new(), 1, "src");
        let chain = ops
            .iter()
            .map(|op| {
                cur = match op {
                    ChainOp::Map(f) => graph.map(cur, Arc::clone(f), 0.0, "map"),
                    ChainOp::Filter(f) => graph.filter(cur, Arc::clone(f), 0.0, "filter"),
                    ChainOp::FlatMap(f) => graph.flat_map(cur, Arc::clone(f), 0.0, "flat-map"),
                };
                cur
            })
            .collect();
        FusedChain { graph, chain }
    }

    /// Runs the engine's production narrow-chain kernel over `input`.
    pub fn run(&self, input: &Arc<Vec<Record>>) -> Vec<Record> {
        engine::exec::run_narrow_chain(&self.graph, &self.chain, input)
    }
}

/// The seed-era reduce-side join merge: three `SipHash` hash maps
/// grown on demand, a separate match-collection pass, and an output vector
/// with no capacity hint.
pub fn seed_merge_join(left: &[Record], right: &[Record]) -> (Vec<Record>, u64) {
    let mut order: Vec<Key> = Vec::new();
    let mut table: HashMap<Key, Vec<Value>> = HashMap::new();
    for r in left {
        table
            .entry(r.key.clone())
            .or_insert_with(|| {
                order.push(r.key.clone());
                Vec::new()
            })
            .push(r.value.clone());
    }
    let mut matches: HashMap<Key, Vec<Value>> = HashMap::new();
    let mut probes = 0u64;
    for r in right {
        probes += 1;
        if table.contains_key(&r.key) {
            matches
                .entry(r.key.clone())
                .or_default()
                .push(r.value.clone());
        }
    }
    let mut out = Vec::new();
    for k in order {
        if let Some(rights) = matches.get(&k) {
            for l in &table[&k] {
                for r in rights {
                    out.push(Record::new(
                        k.clone(),
                        Value::Pair(Box::new(l.clone()), Box::new(r.clone())),
                    ));
                }
            }
        }
    }
    (out, probes)
}

/// The seed-era reduce-side co-group merge: two on-demand `SipHash`
/// maps plus an order list, output assembled without a capacity hint.
pub fn seed_merge_cogroup(left: &[Record], right: &[Record]) -> Vec<Record> {
    let mut order: Vec<Key> = Vec::new();
    let mut lefts: HashMap<Key, Vec<Value>> = HashMap::new();
    let mut rights: HashMap<Key, Vec<Value>> = HashMap::new();
    for r in left {
        lefts
            .entry(r.key.clone())
            .or_insert_with(|| {
                order.push(r.key.clone());
                Vec::new()
            })
            .push(r.value.clone());
    }
    for r in right {
        if !lefts.contains_key(&r.key) && !rights.contains_key(&r.key) {
            order.push(r.key.clone());
        }
        rights
            .entry(r.key.clone())
            .or_default()
            .push(r.value.clone());
    }
    order
        .into_iter()
        .map(|k| {
            let l = lefts.remove(&k).unwrap_or_default();
            let r = rights.remove(&k).unwrap_or_default();
            Record::new(
                k,
                Value::Pair(
                    Box::new(Value::List(Arc::new(l))),
                    Box::new(Value::List(Arc::new(r))),
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{Key, Value};

    fn data(n: usize) -> Arc<Vec<Record>> {
        Arc::new(
            (0..n)
                .map(|i| Record::new(Key::Int(i as i64 % 37), Value::Int(i as i64)))
                .collect(),
        )
    }

    fn chain() -> Vec<ChainOp> {
        vec![
            ChainOp::Filter(Arc::new(|r: &Record| r.value.as_int() % 3 != 0)),
            ChainOp::Map(Arc::new(|r: &Record| {
                Record::new(r.key.clone(), Value::Int(r.value.as_int() * 2))
            })),
        ]
    }

    #[test]
    fn fused_chain_matches_seed_chain() {
        let input = data(500);
        let ops = chain();
        assert_eq!(seed_chain(&input, &ops), FusedChain::new(&ops).run(&input));
    }

    #[test]
    fn seed_bucketize_matches_current() {
        let input = data(2000);
        let part = engine::HashPartitioner::new(16);
        let sum: ReduceFn = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
        for combine in [None, Some(&sum)] {
            let (old, old_ops) = seed_bucketize(&input, &part, combine);
            let (new, new_ops) = engine::shuffle::bucketize(&input, &part, combine);
            assert_eq!(old_ops, new_ops);
            assert_eq!(old.bytes, new.bytes);
            for (a, b) in old.buckets.iter().zip(new.buckets.iter()) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn columnar_kernels_match_row_kernels() {
        use engine::shuffle::{bucketize_columnar, bucketize_in, Bucket, TaskArena};
        use engine::{concat_int_batches, run_int_chain, ColumnBatch, IntOp};

        let input = data(2000);
        // Vectorized fused chain vs the row streaming pass.
        let batch = ColumnBatch::from_records(&input);
        let int_ops = vec![
            IntOp::Filter(Box::new(|v: i64| v % 3 != 0)),
            IntOp::Map(Box::new(|v: i64| v * 2)),
        ];
        let row_ops = chain();
        assert_eq!(
            run_int_chain(&batch, &int_ops).unwrap().to_records(),
            FusedChain::new(&row_ops).run(&input)
        );

        // Per-batch bucketize vs the row loop, buckets and byte tables.
        let part = engine::HashPartitioner::new(16);
        let mut arena_row = TaskArena::default();
        let mut arena_col = TaskArena::default();
        let (rb, row_ops_count) = bucketize_in(&input, &part, None, &mut arena_row);
        let (cb, col_ops_count) = bucketize_columnar(&input, &part, &mut arena_col).unwrap();
        assert_eq!(row_ops_count, col_ops_count);
        assert_eq!(rb.bytes, cb.bytes);
        assert_eq!(rb.buckets, cb.buckets);

        // Slice-shipping concat vs cloning records out of row buckets.
        let col_parts: Vec<ColumnBatch> = cb
            .buckets
            .iter()
            .map(|b| match b {
                Bucket::Cols(c) => c.clone(),
                Bucket::Rows(_) => unreachable!("columnar bucketize emits batches"),
            })
            .collect();
        let cloned: Vec<Record> = rb.buckets.iter().flat_map(|b| b.to_vec()).collect();
        assert_eq!(concat_int_batches(&col_parts).unwrap().to_records(), cloned);
    }

    fn sides(n: usize) -> (Vec<Record>, Vec<Record>) {
        let left = (0..n)
            .map(|i| Record::new(Key::Int(i as i64 % 23), Value::Int(i as i64)))
            .collect();
        let right = (0..n)
            .map(|i| Record::new(Key::Int(i as i64 % 31), Value::Int(-(i as i64))))
            .collect();
        (left, right)
    }

    #[test]
    fn seed_merge_join_matches_current() {
        let (left, right) = sides(600);
        assert_eq!(
            seed_merge_join(&left, &right),
            engine::shuffle::merge_join(&left, &right)
        );
    }

    #[test]
    fn seed_merge_cogroup_matches_current() {
        let (left, right) = sides(600);
        assert_eq!(
            seed_merge_cogroup(&left, &right),
            engine::shuffle::merge_cogroup(&left, &right)
        );
    }
}
