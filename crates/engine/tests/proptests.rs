//! Property-based tests for the engine's core invariants.

use engine::shuffle::{
    bucketize, bucketize_runs, bucketize_runs_shared, CogroupMerge, Combiner, ConcatMerge,
    GroupMerge, JoinMerge, ReduceMerge, Run, TaskArena, TaskRuns,
};
use engine::{
    build_partitioner, measure_skew, sum_vector_counts, sum_vectors, Context, Emit, EngineOptions,
    FlatMapFn, GenFn, HashPartitioner, Key, Partitioner, PartitionerSpec, RangePartitioner, Rdd,
    Record, ReduceFn, Value, WorkloadConf,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn arb_key() -> impl Strategy<Value = Key> {
    prop_oneof![
        any::<i64>().prop_map(Key::Int),
        "[a-z]{0,8}".prop_map(|s| Key::str(&s)),
    ]
}

fn arb_records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        (any::<i64>(), any::<i64>())
            .prop_map(|(k, v)| Record::new(Key::Int(k % 50), Value::Int(v))),
        0..max,
    )
}

/// Every value shape, including nested pairs and lists.
fn arb_any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-z]{0,8}".prop_map(|s| Value::Str(s.into())),
        proptest::collection::vec(any::<f64>(), 0..6).prop_map(Value::vector),
        (any::<i64>(), any::<f64>())
            .prop_map(|(a, b)| Value::Pair(Box::new(Value::Int(a)), Box::new(Value::Float(b)))),
        proptest::collection::vec(any::<i64>().prop_map(Value::Int), 0..4)
            .prop_map(|v| Value::List(Arc::new(v))),
    ]
}

/// Records over a dozen keys of every shape (so runs share keys) with
/// values of every shape.
fn arb_colliding_records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    let record = (0i64..12, arb_any_value()).prop_map(|(k, v)| {
        let key = match k % 4 {
            0 => Key::None,
            1 => Key::Int(k / 4),
            2 => Key::str(["a", "b", "c"][(k / 4) as usize]),
            _ => Key::Pair(Box::new(Key::Int(k / 4)), Box::new(Key::None)),
        };
        Record::new(key, v)
    });
    proptest::collection::vec(record, 0..max)
}

/// Ten keys — integers, strings, pairs — among them two pairs of pairs
/// that are unequal yet share a stable hash: a pair key's byte encoding is
/// not prefix-free, so `("a", (None, None))` and `("a\u{3}\0", None)` hash
/// the same bytes.
fn hash_colliding_keys() -> Vec<Key> {
    let pair = |a: &str, b: Key| Key::Pair(Box::new(Key::str(a)), Box::new(b));
    let nested = || Key::Pair(Box::new(Key::None), Box::new(Key::None));
    let keys = vec![
        pair("a", nested()),
        pair("a\u{3}\0", Key::None),
        pair("b", nested()),
        pair("b\u{3}\0", Key::None),
        pair("b", Key::None),
        Key::None,
        Key::Int(0),
        Key::Int(1),
        Key::str("a"),
        Key::str(""),
    ];
    assert_eq!(keys[0].stable_hash(), keys[1].stable_hash());
    assert_eq!(keys[2].stable_hash(), keys[3].stable_hash());
    assert!(keys[0] != keys[1] && keys[2] != keys[3]);
    keys
}

/// Records over [`hash_colliding_keys`] with values of every shape.
fn arb_hash_colliding_records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    let keys = hash_colliding_keys();
    proptest::collection::vec(
        (0usize..10, arb_any_value()).prop_map(move |(k, v)| Record::new(keys[k].clone(), v)),
        0..max,
    )
}

/// `records` cut at `cuts` into consecutive runs, as map tasks would
/// deliver them.
fn cut_runs<'a>(records: &'a [Record], cuts: &[usize]) -> Vec<&'a [Record]> {
    let mut ends: Vec<usize> = cuts.iter().map(|&c| c.min(records.len())).collect();
    ends.push(records.len());
    ends.sort_unstable();
    let mut start = 0;
    ends.into_iter()
        .map(|end| {
            let run = &records[start..end];
            start = end;
            run
        })
        .collect()
}

/// Hands every run to `push` in the form its drawn kind names — moved out
/// of an owned buffer or lent — or all lent when `kinds` is `None`. The
/// second argument of `push` is the run's index.
fn feed_runs(runs: &[&[Record]], kinds: Option<&[bool]>, mut push: impl FnMut(Run<'_>, usize)) {
    for (i, run) in runs.iter().enumerate() {
        match kinds.map(|k| k[i % k.len()]) {
            Some(true) => push(Run::Moved(&mut run.to_vec()), i),
            _ => push(Run::Shared(run), i),
        }
    }
}

/// The reference the accumulators are held to, sharing nothing with them:
/// a key is found by a linear scan on full `Key ==` — no hashing, so no
/// collision to get wrong — and takes the next position when the scan
/// fails. Returns the folded records in first-seen key order and the
/// number of folds.
fn naive_reduce(records: &[Record], f: &ReduceFn) -> (Vec<Record>, u64) {
    let (mut out, mut ops) = (Vec::<Record>::new(), 0);
    for r in records {
        match out.iter_mut().find(|held| held.key == r.key) {
            Some(held) => {
                f.fold(&mut held.value, &r.value);
                ops += 1;
            }
            None => out.push(r.clone()),
        }
    }
    (out, ops)
}

/// The same scan over two sides: every key with its left and its right
/// values in arrival order, left keys first. A right record whose key no
/// left record has is kept if `outer` and dropped if not.
fn naive_table(left: &[Record], right: &[Record], outer: bool) -> Vec<(Key, [Vec<Value>; 2])> {
    let mut table: Vec<(Key, [Vec<Value>; 2])> = Vec::new();
    for (side, records) in [left, right].into_iter().enumerate() {
        for r in records {
            let at = match table.iter().position(|(key, _)| *key == r.key) {
                Some(at) => at,
                None if side == 0 || outer => {
                    table.push((r.key.clone(), [Vec::new(), Vec::new()]));
                    table.len() - 1
                }
                None => continue,
            };
            table[at].1[side].push(r.value.clone());
        }
    }
    table
}

fn naive_group(records: &[Record]) -> Vec<Record> {
    naive_table(records, &[], false)
        .into_iter()
        .map(|(key, [values, _])| Record::new(key, Value::List(Arc::new(values))))
        .collect()
}

/// Every matching pair, and one probe per right record.
fn naive_join(left: &[Record], right: &[Record]) -> (Vec<Record>, u64) {
    let mut out = Vec::new();
    for (key, [ls, rs]) in naive_table(left, right, false) {
        for l in &ls {
            for r in &rs {
                let pair = Value::Pair(Box::new(l.clone()), Box::new(r.clone()));
                out.push(Record::new(key.clone(), pair));
            }
        }
    }
    (out, right.len() as u64)
}

fn naive_cogroup(left: &[Record], right: &[Record]) -> Vec<Record> {
    let list = |values| Box::new(Value::List(Arc::new(values)));
    naive_table(left, right, true)
        .into_iter()
        .map(|(key, [ls, rs])| Record::new(key, Value::Pair(list(ls), list(rs))))
        .collect()
}

/// A reduce function defined on every value shape; not commutative, so
/// it also pins the fold order.
fn fold_sizes() -> ReduceFn {
    Arc::new(|a: &Value, b: &Value| {
        let (a, b) = (a.encoded_size() as i64, b.encoded_size() as i64);
        Value::Int(a.wrapping_mul(31).wrapping_add(b))
    })
}

fn sum() -> ReduceFn {
    Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int().wrapping_add(b.as_int())))
}

/// What [`sum_vectors`] computes, by value: a fresh vector per fold.
fn sum_vectors_by_value() -> ReduceFn {
    Arc::new(|a: &Value, b: &Value| {
        let (a, b) = (a.as_vector(), b.as_vector());
        Value::vector(a.iter().zip(b).map(|(x, y)| x + y).collect())
    })
}

/// What [`sum_vector_counts`] computes, by value.
fn sum_vector_counts_by_value() -> ReduceFn {
    let sum = sum_vectors_by_value();
    Arc::new(move |a: &Value, b: &Value| match (a, b) {
        (Value::Pair(sa, ca), Value::Pair(sb, cb)) => {
            let mut s = (**sa).clone();
            sum.fold(&mut s, sb);
            let n = Value::Int(ca.as_int() + cb.as_int());
            Value::Pair(Box::new(s), Box::new(n))
        }
        other => panic!("malformed accumulator {other:?}"),
    })
}

/// Ground truth: per-key sum over a record set.
fn key_sums(records: &[Record]) -> HashMap<Key, i64> {
    let mut m = HashMap::new();
    for r in records {
        *m.entry(r.key.clone()).or_insert(0i64) = m
            .get(&r.key)
            .copied()
            .unwrap_or(0)
            .wrapping_add(r.value.as_int());
    }
    m
}

proptest! {
    /// Every key lands in a valid partition, and the assignment is stable.
    #[test]
    fn partitioners_are_total_and_stable(keys in proptest::collection::vec(arb_key(), 1..200),
                                         parts in 1usize..64) {
        let hash = HashPartitioner::new(parts);
        let range = RangePartitioner::from_sample(keys.iter(), parts, 9);
        for k in &keys {
            let h = hash.partition(k);
            let r = range.partition(k);
            prop_assert!(h < parts);
            prop_assert!(r < parts);
            prop_assert_eq!(h, hash.partition(k));
            prop_assert_eq!(r, range.partition(k));
        }
    }

    /// Range partitioning is monotone in the key order.
    #[test]
    fn range_partitioner_is_monotone(mut keys in proptest::collection::vec(any::<i64>(), 2..300),
                                     parts in 1usize..32) {
        keys.sort_unstable();
        let typed: Vec<Key> = keys.iter().copied().map(Key::Int).collect();
        let p = RangePartitioner::from_sample(typed.iter(), parts, 3);
        let mut last = 0;
        for k in &typed {
            let part = p.partition(k);
            prop_assert!(part >= last, "monotonicity violated");
            last = part;
        }
    }

    /// Bucketizing conserves the per-key sums, with or without combine.
    #[test]
    fn bucketize_conserves_key_sums(records in arb_records(300), parts in 1usize..16,
                                    combine in any::<bool>()) {
        let p = HashPartitioner::new(parts);
        let f = sum();
        let (tb, _) = bucketize(&records, &p, combine.then_some(&f));
        let rebuilt: Vec<Record> =
            tb.buckets.iter().flat_map(|b| b.iter().cloned()).collect();
        prop_assert_eq!(key_sums(&rebuilt), key_sums(&records));
        // And every record sits in the right bucket.
        for (i, bucket) in tb.buckets.iter().enumerate() {
            for r in bucket.iter() {
                prop_assert_eq!(p.partition(&r.key), i);
            }
        }
    }

    /// Reduce-merge over arbitrary partitionings equals the direct fold.
    #[test]
    fn reduce_is_partition_invariant(records in arb_records(200), cut in 0usize..200) {
        let cut = cut.min(records.len());
        let (a, b) = records.split_at(cut);
        let mut m = ReduceMerge::new(sum());
        m.push_slice(a);
        m.push_slice(b);
        let (merged, _) = m.finish();
        prop_assert_eq!(key_sums(&merged), key_sums(&records));
        // One record per distinct key.
        let distinct: std::collections::HashSet<_> =
            records.iter().map(|r| r.key.clone()).collect();
        prop_assert_eq!(merged.len(), distinct.len());
    }

    /// Group-merge collects exactly the multiset of values per key.
    #[test]
    fn group_collects_everything(records in arb_records(150)) {
        let mut m = GroupMerge::new();
        m.push_run(Run::Shared(&records));
        let grouped = m.finish();
        let mut counts: HashMap<Key, usize> = HashMap::new();
        for r in &records {
            *counts.entry(r.key.clone()).or_default() += 1;
        }
        prop_assert_eq!(grouped.len(), counts.len());
        for g in &grouped {
            match &g.value {
                Value::List(vs) => prop_assert_eq!(vs.len(), counts[&g.key]),
                other => prop_assert!(false, "expected list, got {:?}", other),
            }
        }
    }

    /// Concat preserves count and total bytes.
    #[test]
    fn concat_is_lossless(records in arb_records(150), cut in 0usize..150) {
        let cut = cut.min(records.len());
        let (a, b) = records.split_at(cut);
        let mut m = ConcatMerge::new();
        m.push_run(Run::Shared(a));
        m.push_run(Run::Shared(b));
        let merged = m.finish();
        prop_assert_eq!(merged.len(), records.len());
        prop_assert_eq!(engine::batch_size(&merged), engine::batch_size(&records));
    }

    /// However a reducer's input arrives — runs moved or lent, in any
    /// mix, rights before or after the left side is sealed — every
    /// accumulator finishes to what the all-lent feed gives and to what
    /// the hash-free reference computes, records and counters both, over
    /// keys of every shape and over unequal keys that share a stable hash.
    #[test]
    fn accumulators_do_not_care_how_runs_arrive(
        left in prop_oneof![arb_colliding_records(160), arb_hash_colliding_records(160)],
        right in prop_oneof![arb_colliding_records(160), arb_hash_colliding_records(160)],
        left_cuts in proptest::collection::vec(0usize..160, 0..6),
        right_cuts in proptest::collection::vec(0usize..160, 0..6),
        kinds in proptest::collection::vec(any::<bool>(), 16),
        early in 0usize..4,
    ) {
        let lefts = cut_runs(&left, &left_cuts);
        let rights = cut_runs(&right, &right_cuts);
        let f = fold_sizes();

        let reduce = |kinds| {
            let mut m = ReduceMerge::new(Arc::clone(&f));
            feed_runs(&lefts, kinds, |run, _| m.push_run(run));
            m.finish()
        };
        prop_assert_eq!(reduce(Some(&kinds)), reduce(None));
        prop_assert_eq!(reduce(None), naive_reduce(&left, &f));

        let group = |kinds| {
            let mut m = GroupMerge::new();
            feed_runs(&lefts, kinds, |run, _| m.push_run(run));
            m.finish()
        };
        prop_assert_eq!(group(Some(&kinds)), group(None));
        prop_assert_eq!(group(None), naive_group(&left));

        let concat = |kinds| {
            let mut m = ConcatMerge::new();
            feed_runs(&lefts, kinds, |run, _| m.push_run(run));
            m.finish()
        };
        prop_assert_eq!(concat(Some(&kinds)), concat(None));
        prop_assert_eq!(concat(None), left.clone());

        // The first `early` right runs arrive before any left run.
        let right_kinds = |kinds: Option<&[bool]>| kinds.map(|k| k.iter().rev().copied().collect::<Vec<bool>>());
        let join = |kinds: Option<&[bool]>| {
            let rk = right_kinds(kinds);
            let mut m = JoinMerge::new();
            feed_runs(&rights, rk.as_deref(), |run, i| if i < early { m.push_run(run, false) });
            feed_runs(&lefts, kinds, |run, _| m.push_run(run, true));
            m.seal_left();
            feed_runs(&rights, rk.as_deref(), |run, i| if i >= early { m.push_run(run, false) });
            m.finish()
        };
        prop_assert_eq!(join(Some(&kinds)), join(None));
        prop_assert_eq!(join(None), naive_join(&left, &right));

        let cogroup = |kinds: Option<&[bool]>| {
            let rk = right_kinds(kinds);
            let mut m = CogroupMerge::new();
            feed_runs(&rights, rk.as_deref(), |run, i| if i < early { m.push_run(run, false) });
            feed_runs(&lefts, kinds, |run, _| m.push_run(run, true));
            m.seal_left();
            feed_runs(&rights, rk.as_deref(), |run, i| if i >= early { m.push_run(run, false) });
            m.finish()
        };
        prop_assert_eq!(cogroup(Some(&kinds)), cogroup(None));
        prop_assert_eq!(cogroup(None), naive_cogroup(&left, &right));
    }

    /// The incremental combiner fed one record at a time — each owned or
    /// borrowed as drawn — writes what the whole-sequence combining writes
    /// do, and what combine-free bucketing followed by the hash-free
    /// reference reduce of each bucket gives: the same runs with the same boundaries, byte table and
    /// combine count, at one partition, a few, and far more than keys,
    /// with unequal keys that share a hash, over a reused arena.
    #[test]
    fn streamed_combine_equals_the_whole_sequence_write(
        records in arb_hash_colliding_records(200),
        parts in prop_oneof![Just(1usize), 2usize..9, Just(4096usize)],
        range in any::<bool>(),
        owned in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let keys: Vec<Key> = records.iter().map(|r| r.key.clone()).collect();
        let p: Box<dyn Partitioner> = if range {
            Box::new(RangePartitioner::from_sample(keys.iter(), parts, 7))
        } else {
            Box::new(HashPartitioner::new(parts))
        };
        let f = fold_sizes();
        let arena = &mut TaskArena::default();
        let written = |(runs, ops): (TaskRuns, u64)| {
            let tb = runs.into_buckets();
            (tb.buckets, tb.bytes, ops)
        };

        let (buckets, _) = bucketize(&records, &*p, None);
        let merged: Vec<(Vec<Record>, u64)> = buckets
            .buckets
            .iter()
            .map(|b| naive_reduce(b, &f))
            .collect();
        let want = (
            merged
                .iter()
                .map(|(run, _)| Arc::new(run.clone()))
                .collect::<Vec<_>>(),
            merged.iter().map(|(run, _)| engine::batch_size(run)).collect::<Vec<u64>>(),
            merged.iter().map(|(_, ops)| ops).sum::<u64>(),
        );
        prop_assert_eq!(want.0.len(), parts);

        for feed in [Some(true), Some(false), None] {
            let mut combiner = Combiner::new(&*p, &f, arena);
            for (i, r) in records.iter().enumerate() {
                if feed.unwrap_or(owned[i % owned.len()]) {
                    combiner.push(r.clone());
                } else {
                    combiner.push(r);
                }
            }
            prop_assert_eq!(&written(combiner.finish()), &want, "feed owned: {:?}", feed);
        }
        prop_assert_eq!(&written(bucketize_runs(records.clone(), &*p, Some(&f), arena)), &want);
        prop_assert_eq!(&written(bucketize_runs_shared(&records, &*p, Some(&f), arena)), &want);
    }

    /// A map task's sparse run list is its dense per-partition view with
    /// the empty partitions left out, for owned, shared and combining
    /// writes: the listed runs ascend by partition, each holds
    /// exactly the records the partitioner sends there — in first-seen
    /// order, folded by key when the write combines — and its bytes are
    /// their encoded size; a partition is listed if and only if it has a
    /// record. Drawn down to a task with no records and up to P far above
    /// the records.
    #[test]
    fn sparse_runs_are_the_dense_view(
        records in prop_oneof![arb_records(120), arb_hash_colliding_records(120)],
        parts in prop_oneof![Just(1usize), 2usize..9, Just(4096usize)],
        range in any::<bool>(),
    ) {
        let keys: Vec<Key> = records.iter().map(|r| r.key.clone()).collect();
        let p: Box<dyn Partitioner> = if range {
            Box::new(RangePartitioner::from_sample(keys.iter(), parts, 13))
        } else {
            Box::new(HashPartitioner::new(parts))
        };
        let f = fold_sizes();
        let arena = &mut TaskArena::default();
        let sent = |b: usize| -> Vec<Record> {
            records.iter().filter(|r| p.partition(&r.key) == b).cloned().collect()
        };
        let check = |runs: TaskRuns, combine: bool, write: &str| {
            let want = |b: usize| if combine { naive_reduce(&sent(b), &f).0 } else { sent(b) };
            let spans = runs.spans().to_vec();
            prop_assert!(spans.len() <= records.len().min(parts), "{}: {} runs", write, spans.len());
            let mut at = 0;
            for (i, s) in spans.iter().enumerate() {
                prop_assert_eq!(s.start, at, "{}: the runs tile the records", write);
                prop_assert!(s.end > s.start, "{}: run {:?} is empty", write, s);
                prop_assert!(i == 0 || spans[i - 1].partition < s.partition, "{}: ascending", write);
                at = s.end;
            }
            // The dense view cuts the same records at the listed bounds.
            let dense = runs.into_buckets();
            prop_assert_eq!(dense.buckets.len(), parts);
            let held: usize = dense.buckets.iter().map(|b| b.len()).sum();
            prop_assert_eq!(at as usize, held, "{}: the runs cover every record", write);
            for (b, bucket) in dense.buckets.iter().enumerate() {
                let run = bucket.to_vec();
                prop_assert_eq!(&run, &want(b), "{}: partition {}", write, b);
                prop_assert_eq!(dense.bytes[b], engine::batch_size(&run), "{}: bytes of {}", write, b);
                match spans.iter().find(|s| s.partition as usize == b) {
                    Some(s) => {
                        prop_assert_eq!((s.end - s.start) as usize, run.len(), "{}: {:?}", write, s);
                        prop_assert_eq!(s.bytes, dense.bytes[b], "{}: {:?}", write, s);
                    }
                    None => prop_assert!(run.is_empty(), "{}: partition {} unlisted", write, b),
                }
            }
        };
        check(bucketize_runs(records.clone(), &*p, None, arena).0, false, "owned");
        check(bucketize_runs_shared(&records, &*p, None, arena).0, false, "shared");
        check(bucketize_runs(records.clone(), &*p, Some(&f), arena).0, true, "combining");
        check(bucketize_runs_shared(&records, &*p, Some(&f), arena).0, true, "combining shared");
    }

    /// The in-place vector reducers finish a map-side combine and a
    /// reduce-side merge to the records and op counts of their by-value
    /// twins, over keys of every shape, however the records arrive. Every
    /// record fed shares its vector with a held copy (as a re-keyed cached
    /// point does) unless drawn otherwise, and the held copies read back
    /// as generated: a fold never writes through a shared buffer.
    #[test]
    fn in_place_reducers_equal_their_by_value_twins(
        rows in proptest::collection::vec(
            (0usize..10, proptest::collection::vec(any::<f64>(), 3), 0i64..9, any::<bool>()),
            0..200,
        ),
        counted in any::<bool>(),
        parts in prop_oneof![Just(1usize), 2usize..9, Just(512usize)],
        cuts in proptest::collection::vec(0usize..200, 0..6),
        owned in proptest::collection::vec(any::<bool>(), 8),
        kinds in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let keys = hash_colliding_keys();
        let build = || -> Vec<Record> {
            rows.iter()
                .map(|(k, x, n, _)| {
                    let x = Value::vector(x.clone());
                    let v = if counted {
                        Value::Pair(Box::new(x), Box::new(Value::Int(*n)))
                    } else {
                        x
                    };
                    Record::new(keys[*k].clone(), v)
                })
                .collect()
        };
        let pristine = build();
        let held = build();
        // A clone shares the vector's buffer; a rebuilt record owns its own.
        let fed: Vec<Record> = held
            .iter()
            .zip(build())
            .zip(&rows)
            .map(|((shared, own), row)| if row.3 { shared.clone() } else { own })
            .collect();
        let (in_place, by_value) = if counted {
            (sum_vector_counts(), sum_vector_counts_by_value())
        } else {
            (sum_vectors(), sum_vectors_by_value())
        };

        let p = HashPartitioner::new(parts);
        let combined = |f: &ReduceFn| {
            let arena = &mut TaskArena::default();
            let mut combiner = Combiner::new(&p, f, arena);
            for (i, r) in fed.iter().enumerate() {
                if owned[i % owned.len()] {
                    combiner.push(r.clone());
                } else {
                    combiner.push(r);
                }
            }
            let (runs, ops) = combiner.finish();
            let tb = runs.into_buckets();
            (tb.buckets, tb.bytes, ops)
        };
        prop_assert_eq!(combined(&in_place), combined(&by_value));

        let runs = cut_runs(&fed, &cuts);
        let merged = |f: &ReduceFn| {
            let mut m = ReduceMerge::new(Arc::clone(f));
            feed_runs(&runs, Some(&kinds), |run, _| m.push_run(run));
            m.finish()
        };
        prop_assert_eq!(merged(&in_place), merged(&by_value));

        prop_assert_eq!(held, pristine);
    }

    /// Join output size equals the sum over shared keys of |L_k|·|R_k|.
    #[test]
    fn join_cardinality_matches_set_theory(left in arb_records(80), right in arb_records(80)) {
        let mut m = JoinMerge::new();
        m.push_run(Run::Shared(&left), true);
        m.push_run(Run::Shared(&right), false);
        let (joined, _) = m.finish();
        let mut lc: HashMap<Key, usize> = HashMap::new();
        for r in &left { *lc.entry(r.key.clone()).or_default() += 1; }
        let mut rc: HashMap<Key, usize> = HashMap::new();
        for r in &right { *rc.entry(r.key.clone()).or_default() += 1; }
        let expected: usize = lc.iter()
            .filter_map(|(k, &l)| rc.get(k).map(|&r| l * r))
            .sum();
        prop_assert_eq!(joined.len(), expected);
    }

    /// Skew of a hash partitioning is always ≥ 1 and equals P for a single
    /// hot key.
    #[test]
    fn skew_bounds(keys in proptest::collection::vec(any::<i64>(), 1..200), parts in 2usize..32) {
        let typed: Vec<Key> = keys.iter().copied().map(Key::Int).collect();
        let p = HashPartitioner::new(parts);
        let skew = measure_skew(&p, typed.iter());
        prop_assert!(skew >= 1.0 - 1e-9);
        prop_assert!(skew <= parts as f64 + 1e-9);
    }

    /// The configuration text format round-trips arbitrary configurations.
    #[test]
    fn conf_text_roundtrip(entries in proptest::collection::vec(
            (any::<u64>(), any::<bool>(), 1usize..4096), 0..20),
        default in proptest::option::of(1usize..5000),
        override_fixed in any::<bool>())
    {
        let mut conf = WorkloadConf::new();
        conf.default_parallelism = default;
        conf.override_user_fixed = override_fixed;
        for (sig, range, parts) in entries {
            let spec = if range {
                PartitionerSpec::range(parts)
            } else {
                PartitionerSpec::hash(parts)
            };
            // Alternate between stage entries and repartition insertions.
            if sig % 2 == 0 {
                conf.set_stage(sig, spec);
            } else {
                conf.set_repartition(sig, spec);
            }
        }
        let back = WorkloadConf::from_text(&conf.to_text()).expect("own format parses");
        prop_assert_eq!(back, conf);
    }

    /// build_partitioner honours the requested spec for any sample.
    #[test]
    fn build_partitioner_honours_spec(keys in proptest::collection::vec(arb_key(), 0..100),
                                      parts in 1usize..64, range in any::<bool>()) {
        let spec = if range { PartitionerSpec::range(parts) } else { PartitionerSpec::hash(parts) };
        let p = build_partitioner(spec, keys.iter(), 5);
        prop_assert_eq!(p.num_partitions(), parts);
        prop_assert_eq!(p.kind(), spec.kind);
    }
}

/// A keyed point as the producers under test read it.
type Point = (i64, Vec<f64>);

/// Hands `scratch` downstream rewritten as `(key, x)`: lent, or — every
/// so often, as `lend` draws it — given away as a clone that goes on
/// sharing the scratch's buffer, so the next rewrite has to copy first.
fn hand_over(
    scratch: &mut Record,
    key: i64,
    x: impl Iterator<Item = f64>,
    lend: bool,
    out: &mut dyn Emit,
) {
    scratch.key = Key::Int(key);
    match &mut scratch.value {
        Value::Vector(buf) => Arc::make_mut(buf)
            .iter_mut()
            .zip(x)
            .for_each(|(b, v)| *b = v),
        other => panic!("vector scratch expected, got {other:?}"),
    }
    if lend {
        out.lend(scratch);
    } else {
        out.emit(scratch.clone());
    }
}

/// A source over `points`, split evenly: every record a fresh one, or all
/// of a split handed over out of one scratch record.
fn point_source(points: Arc<Vec<Point>>, lends: Option<Arc<Vec<bool>>>) -> GenFn {
    Arc::new(move |part, parts, out: &mut dyn Emit| {
        let (lo, hi) = (
            points.len() * part / parts,
            points.len() * (part + 1) / parts,
        );
        out.reserve(hi - lo);
        let mut scratch = Record::keyless(Value::vector(vec![0.0; 3]));
        for (i, (key, x)) in points[lo..hi].iter().enumerate() {
            match &lends {
                None => out.emit(Record::new(Key::Int(*key), Value::vector(x.clone()))),
                Some(lends) => {
                    let lend = lends[i % lends.len()];
                    hand_over(&mut scratch, *key, x.iter().copied(), lend, out)
                }
            }
        }
    })
}

/// `key.rem_euclid(4)` outputs per point, the `j`-th re-keyed and scaled
/// by `j + 1`: fresh records, or one scratch record that starts as a
/// clone of the input — sharing its vector with whatever holds the input.
fn fan_out(lends: Option<Arc<Vec<bool>>>) -> FlatMapFn {
    Arc::new(move |r: &Record, out: &mut dyn Emit| {
        let (Key::Int(key), x) = (&r.key, r.value.as_vector()) else {
            panic!("int-keyed point expected, got {r:?}")
        };
        let mut scratch = r.clone();
        for j in 0..key.rem_euclid(4) {
            let scaled = x.iter().map(|v| v * (j + 1) as f64);
            match &lends {
                None => out.emit(Record::new(
                    Key::Int((key + j) % 7),
                    Value::vector_from(scaled),
                )),
                Some(lends) => {
                    let lend = lends[(key + j) as usize % lends.len()];
                    hand_over(&mut scratch, (key + j) % 7, scaled, lend, out)
                }
            }
        }
    })
}

/// Where the producer under test sits.
#[derive(Debug, Clone, Copy)]
enum Producer {
    /// It is the source.
    Source,
    /// A flat-map over a source collection: its tasks read shared slices.
    OverShared,
    /// A flat-map over a repartition: its tasks own what they read.
    OverOwned,
}

/// Every sink a producer's task can end in, in one context: collected,
/// counted, combined — streamed from the producer — then cached, and the
/// cache collected twice, counted and combined. Returns what each job
/// returned, the job metrics (records, bytes, and the virtual durations
/// the combine's op counts are charged into) and the final clock.
fn producer_jobs(
    points: &Arc<Vec<Point>>,
    lends: Option<Arc<Vec<bool>>>,
    producer: Producer,
) -> (Vec<Vec<Record>>, Vec<u64>, String, u64) {
    let mut ctx = Context::new(EngineOptions {
        cluster: simcluster::uniform_cluster(2, 2, 2.0),
        default_parallelism: 3,
        workers: 1,
        ..EngineOptions::default()
    });
    let records = || {
        let record = |(k, x): &Point| Record::new(Key::Int(*k), Value::vector(x.clone()));
        points.iter().map(record).collect::<Vec<Record>>()
    };
    let produced: Rdd = match producer {
        Producer::Source => {
            let gen = point_source(Arc::clone(points), lends);
            ctx.text_file("points", 64 * points.len() as u64, gen, 1e-6, "points")
        }
        Producer::OverShared => {
            let src = ctx.parallelize(records(), 3, "src");
            ctx.flat_map(src, fan_out(lends), 1e-6, "fan-out")
        }
        Producer::OverOwned => {
            let src = ctx.parallelize(records(), 3, "src");
            let moved = ctx.repartition(src, Some(PartitionerSpec::hash(4)), "moved");
            ctx.flat_map(moved, fan_out(lends), 1e-6, "fan-out")
        }
    };
    let sums = ctx.reduce_by_key(produced, sum_vectors(), None, 1e-6, "sums");
    let (mut collected, mut counted) = (Vec::new(), Vec::new());
    collected.push(ctx.collect(produced, "collect"));
    counted.push(ctx.count(produced, "count"));
    collected.push(ctx.collect(sums, "combine"));
    ctx.cache(produced);
    collected.push(ctx.collect(produced, "materialize"));
    collected.push(ctx.collect(produced, "reread"));
    counted.push(ctx.count(produced, "recount"));
    collected.push(ctx.collect(sums, "recombine"));
    (
        collected,
        counted,
        format!("{:?}", ctx.jobs()),
        ctx.clock().to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A generator or a flat-map that hands every record over out of one
    /// reused scratch record — rewritten through `Arc::make_mut` between
    /// lends, some of them given away as clones instead — yields exactly
    /// what its twin building a fresh record each time yields: the same
    /// records from every sink (collect, count, combine, cached and
    /// re-read), the same `output_records` / `output_bytes`, and the same
    /// virtual timings, which the combine's op counts are charged into —
    /// whether its tasks stream a source, read a shared slice or own their
    /// input. And nothing it lent is written through: the input and the
    /// cache read back as produced.
    #[test]
    fn a_lending_producer_equals_its_fresh_record_twin(
        points in proptest::collection::vec(
            (0i64..40, proptest::collection::vec((-800i32..800).prop_map(|v| v as f64 / 8.0), 3)),
            0..60,
        ),
        lends in proptest::collection::vec(any::<bool>(), 1..7),
    ) {
        let (points, lends) = (Arc::new(points), Arc::new(lends));
        for producer in [Producer::Source, Producer::OverShared, Producer::OverOwned] {
            let fresh = producer_jobs(&points, None, producer);
            let lending = producer_jobs(&points, Some(Arc::clone(&lends)), producer);
            prop_assert_eq!(&lending.0, &fresh.0, "{:?}: records", producer);
            prop_assert_eq!(&lending.1, &fresh.1, "{:?}: counts", producer);
            prop_assert_eq!(&lending.2, &fresh.2, "{:?}: job metrics", producer);
            prop_assert_eq!(lending.3, fresh.3, "{:?}: clock", producer);
            let [collect, _, materialize, reread, _] = fresh.0.as_slice() else {
                panic!("five collecting jobs")
            };
            prop_assert_eq!(collect, materialize);
            prop_assert_eq!(collect, reread);
            prop_assert_eq!(fresh.1.as_slice(), [collect.len() as u64; 2]);
        }
    }
}
