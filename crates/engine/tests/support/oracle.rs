//! The reference evaluator: an RDD's records by the operators' definitions
//! alone, computed by walking the lineage graph — no stages, shuffle,
//! partitioner, pool or simulator. It reads each node's `op` and `parents`
//! and nothing else (not the cache marks, not the schemes), and finds equal
//! keys through a `BTreeMap` on `Key`'s total order, so keys that share a
//! `stable_hash` never meet.
//!
//! Partition membership matters to one operator: `sample` draws per
//! partition, seeded with the partition's index. It is tracked from a
//! `SourceCollection`'s even slices down a narrow chain — a cached node on
//! the way is re-read as the partitions it was written from — and dropped
//! at the first shuffle. A `sample` past a shuffle is refused, and so is a
//! `SourceBlocks` source, whose split count is the executor's choice.

use engine::{Key, OpKind, Rdd, RddGraph, RddNode, Record, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// An RDD's records: in the partitions of the source they descend from
/// while `split`; past a shuffle, in one partition of no index.
#[derive(Clone)]
struct Parts {
    parts: Vec<Vec<Record>>,
    split: bool,
}

fn bag(records: impl IntoIterator<Item = Record>) -> Parts {
    let parts = vec![records.into_iter().collect()];
    Parts {
        parts,
        split: false,
    }
}

/// The values of every key, in arrival order.
fn grouped(records: Vec<Record>) -> BTreeMap<Key, Vec<Value>> {
    let mut table: BTreeMap<Key, Vec<Value>> = BTreeMap::new();
    for r in records {
        table.entry(r.key).or_default().push(r.value);
    }
    table
}

fn list(values: Vec<Value>) -> Value {
    Value::List(Arc::new(values))
}

fn pair(a: Value, b: Value) -> Value {
    Value::Pair(Box::new(a), Box::new(b))
}

/// One graph's evaluation; each RDD is computed once.
pub struct Oracle<'g> {
    graph: &'g RddGraph,
    memo: HashMap<Rdd, Parts>,
}

impl<'g> Oracle<'g> {
    pub fn new(graph: &'g RddGraph) -> Self {
        let memo = HashMap::new();
        Oracle { graph, memo }
    }

    /// `rdd`'s records, in no particular order.
    pub fn records(&mut self, rdd: Rdd) -> Vec<Record> {
        self.parts(rdd).parts.concat()
    }

    /// A narrow op over `node`'s parent, partition by partition; `op` is
    /// handed the partition's index while one is known.
    fn narrow(
        &mut self,
        node: &RddNode,
        mut op: impl FnMut(Option<usize>, Vec<Record>) -> Vec<Record>,
    ) -> Parts {
        let Parts { parts, split } = self.parts(node.parents[0]);
        let parts = parts.into_iter().enumerate();
        let parts = parts
            .map(|(i, part)| op(split.then_some(i), part))
            .collect();
        Parts { parts, split }
    }

    fn parts(&mut self, rdd: Rdd) -> Parts {
        if let Some(done) = self.memo.get(&rdd) {
            return done.clone();
        }
        let graph = self.graph;
        let node = graph.node(rdd);
        let parent = |side: usize| node.parents[side];
        let out = match &node.op {
            OpKind::SourceCollection { data, partitions } => {
                let cut = |i: usize| i * data.len() / partitions;
                let parts = (0..*partitions).map(|i| data[cut(i)..cut(i + 1)].to_vec());
                Parts {
                    parts: parts.collect(),
                    split: true,
                }
            }
            OpKind::SourceBlocks { .. } => panic!("{rdd:?}: the executor splits a block source"),
            OpKind::ReduceByKey { f, .. } => {
                let table = grouped(self.records(parent(0)));
                bag(table.into_iter().map(|(key, values)| {
                    let mut values = values.into_iter();
                    let mut acc = values.next().expect("a grouped key has a value");
                    values.for_each(|v| f.fold(&mut acc, &v));
                    Record::new(key, acc)
                }))
            }
            OpKind::GroupByKey { .. } => {
                let table = grouped(self.records(parent(0)));
                bag(table.into_iter().map(|(k, vs)| Record::new(k, list(vs))))
            }
            OpKind::Repartition { .. } => bag(self.records(parent(0))),
            OpKind::Join { .. } | OpKind::CoGroup { .. } => {
                let outer = matches!(node.op, OpKind::CoGroup { .. });
                let mut left = grouped(self.records(parent(0)));
                let mut right = grouped(self.records(parent(1)));
                let right_keys = right.keys().filter(|_| outer);
                let keys: BTreeSet<Key> = left.keys().chain(right_keys).cloned().collect();
                bag(keys.into_iter().flat_map(|k| {
                    let ls = left.remove(&k).unwrap_or_default();
                    let rs = right.remove(&k).unwrap_or_default();
                    if outer {
                        return vec![Record::new(k, pair(list(ls), list(rs)))];
                    }
                    let pairs = ls.iter().flat_map(|l| rs.iter().map(move |r| (l, r)));
                    let pairs = pairs.map(|(l, r)| pair(l.clone(), r.clone()));
                    pairs.map(|v| Record::new(k.clone(), v)).collect()
                }))
            }
            // Every output written over a fresh record.
            OpKind::Map { f } | OpKind::MapValues { f } => self.narrow(node, |_, part| {
                let map = |r| {
                    let mut out = Record::default();
                    f(r, &mut out);
                    out
                };
                part.iter().map(map).collect()
            }),
            OpKind::FlatMap { f } => self.narrow(node, |_, part| {
                let mut out = Vec::new();
                part.iter().for_each(|r| f(r, &mut out));
                out
            }),
            OpKind::Filter { f } => {
                self.narrow(node, |_, part| part.into_iter().filter(|r| f(r)).collect())
            }
            OpKind::Sample { fraction, seed } => self.narrow(node, |index, part| {
                let Some(i) = index else {
                    panic!("{rdd:?}: a sample past a shuffle draws per unknown partition");
                };
                let mut rng = numeric::XorShift64::new(seed ^ ((i as u64 + 1) * 0x9E37));
                part.into_iter()
                    .filter(|_| rng.next_f64() < *fraction)
                    .collect()
            }),
        };
        self.memo.insert(rdd, out.clone());
        out
    }
}

/// `records` in one canonical order — by key, then by the rendered value —
/// with every list inside a value put in that order first: the order in
/// which runs reached a merge, which the scheme and P move, is not part
/// of a result.
pub fn sorted(records: Vec<Record>) -> Vec<Record> {
    fn canon(v: Value) -> Value {
        match v {
            Value::Pair(a, b) => pair(canon(*a), canon(*b)),
            Value::List(vs) => {
                let mut vs: Vec<Value> = vs.iter().cloned().map(canon).collect();
                vs.sort_by_cached_key(|v| format!("{v:?}"));
                list(vs)
            }
            other => other,
        }
    }
    let records = records.into_iter();
    let mut out: Vec<Record> = records
        .map(|r| Record::new(r.key, canon(r.value)))
        .collect();
    out.sort_by_cached_key(|r| (r.key.clone(), format!("{:?}", r.value)));
    out
}

/// The evaluator's own tests: each operator against tables computed by
/// hand, and the key and graph shapes that trip a partitioned
/// implementation — keys sharing a hash, keyless records, an empty side, a
/// self-join, a diamond.
#[cfg(test)]
mod tests {
    use super::*;
    use engine::{Emit, GenFn, PartitionerSpec, ReduceFn};

    fn int(k: i64, v: i64) -> Record {
        Record::new(Key::Int(k), Value::Int(v))
    }

    fn ints(vs: &[i64]) -> Value {
        list(vs.iter().copied().map(Value::Int).collect())
    }

    fn sum() -> ReduceFn {
        Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
    }

    /// The evaluator makes `want` of `rdd`, in some order.
    fn assert_eval(g: &RddGraph, rdd: Rdd, want: impl IntoIterator<Item = Record>) {
        let got = Oracle::new(g).records(rdd);
        assert_eq!(sorted(got), sorted(want.into_iter().collect()));
    }

    type Table = BTreeMap<i64, Vec<i64>>;

    /// Two sources — forty left keys, one with half the records; thirty
    /// right keys, twenty of them shared — and their values per key.
    fn two_sides(g: &mut RddGraph) -> ([Rdd; 2], [Table; 2]) {
        let left = (0..3000).map(|i| (if i % 2 == 0 { 27 } else { i / 2 % 40 }, i));
        let right = (0..150).map(|i| (20 + i * 7 % 30, -i));
        let mut source = |rows: Vec<(i64, i64)>| {
            let mut table = Table::new();
            for &(k, v) in &rows {
                table.entry(k).or_default().push(v);
            }
            let records = rows.into_iter().map(|(k, v)| int(k, v)).collect();
            (g.parallelize(records, 3, "side"), table)
        };
        let ((l, lt), (r, rt)) = (source(left.collect()), source(right.collect()));
        ([l, r], [lt, rt])
    }

    #[test]
    fn reduce_by_key_folds_every_value_of_a_key() {
        let mut g = RddGraph::new();
        let ([l, _], [lt, _]) = two_sides(&mut g);
        let sums = g.reduce_by_key(l, sum(), None, 1e-6, "sums");
        let want = lt.iter().map(|(&k, vs)| int(k, vs.iter().sum()));
        assert_eval(&g, sums, want);
        // Key k of i % 8 holds k, k+8, …, k+392: fifty values summing to 50k + 9800.
        let src = g.parallelize((0..400).map(|i| int(i % 8, i)).collect(), 5, "src");
        let scheme = Some(PartitionerSpec::hash(64));
        let sums = g.reduce_by_key(src, sum(), scheme, 1e-6, "sums");
        assert_eval(&g, sums, (0..8).map(|k| int(k, 50 * k + 9800)));
    }

    #[test]
    fn group_by_key_lists_every_value_of_a_key() {
        let mut g = RddGraph::new();
        let ([l, _], [lt, _]) = two_sides(&mut g);
        let groups = g.group_by_key(l, None, 1e-6, "groups");
        let want = lt.iter().map(|(&k, vs)| Record::new(Key::Int(k), ints(vs)));
        assert_eval(&g, groups, want);
    }

    #[test]
    fn repartition_moves_every_record() {
        let mut g = RddGraph::new();
        let ([l, _], [lt, _]) = two_sides(&mut g);
        let moved = g.repartition(l, Some(PartitionerSpec::range(512)), "moved");
        let want = lt
            .iter()
            .flat_map(|(&k, vs)| vs.iter().map(move |&v| int(k, v)));
        assert_eval(&g, moved, want);
    }

    #[test]
    fn join_pairs_every_left_value_with_every_right_value_of_a_key() {
        let mut g = RddGraph::new();
        let ([l, r], [lt, rt]) = two_sides(&mut g);
        let joined = g.join(l, r, None, 1e-6, "joined");
        let mut want = Vec::new();
        for (&k, ls) in &lt {
            for (&l, &r) in ls
                .iter()
                .flat_map(|l| rt.get(&k).into_iter().flatten().map(move |r| (l, r)))
            {
                want.push(Record::new(Key::Int(k), pair(Value::Int(l), Value::Int(r))));
            }
        }
        assert!(want.len() > 1000);
        assert_eval(&g, joined, want);
    }

    #[test]
    fn co_group_lists_both_sides_of_every_key_either_side_has() {
        let mut g = RddGraph::new();
        let ([l, r], [lt, rt]) = two_sides(&mut g);
        let cogrouped = g.co_group(l, r, None, 1e-6, "cogrouped");
        let keys: BTreeSet<i64> = lt.keys().chain(rt.keys()).copied().collect();
        let side = |t: &Table, k: &i64| ints(t.get(k).map_or(&[], Vec::as_slice));
        let row = |k: &i64| Record::new(Key::Int(*k), pair(side(&lt, k), side(&rt, k)));
        assert_eq!(keys.len(), 50);
        assert_eval(&g, cogrouped, keys.iter().map(row));
    }

    #[test]
    fn keys_that_share_a_stable_hash_stay_apart() {
        let pair_key = |a: &str, b| Key::Pair(Box::new(Key::str(a)), Box::new(b));
        let nested = Key::Pair(Box::new(Key::None), Box::new(Key::None));
        let (a, b) = (pair_key("a", nested), pair_key("a\u{3}\0", Key::None));
        assert_eq!(a.stable_hash(), b.stable_hash());
        let mut g = RddGraph::new();
        let records = (0..6).map(|i| Record::new([&a, &b][i % 2].clone(), Value::Int(i as i64)));
        let src = g.parallelize(records.collect(), 2, "src");
        let sums = g.reduce_by_key(src, sum(), None, 1e-6, "sums");
        let want = [(a, 6), (b, 9)].map(|(k, v)| Record::new(k, Value::Int(v)));
        assert_eval(&g, sums, want);
        let joined = g.join(src, sums, None, 1e-6, "joined");
        assert_eq!(Oracle::new(&g).records(joined).len(), 6);
    }

    #[test]
    fn keyless_records_are_one_key() {
        let mut g = RddGraph::new();
        let records = (0..5).map(|i| Record::keyless(Value::Int(i)));
        let src = g.parallelize(records.collect(), 3, "src");
        let groups = g.group_by_key(src, None, 1e-6, "groups");
        assert_eval(&g, groups, [Record::keyless(ints(&[0, 1, 2, 3, 4]))]);
    }

    #[test]
    fn an_empty_side_gives_nothing_but_the_other_sides_keys() {
        let mut g = RddGraph::new();
        let empty = g.parallelize(Vec::new(), 4, "empty");
        let src = g.parallelize(vec![int(1, 10), int(1, 11)], 2, "src");
        let reduced = g.reduce_by_key(empty, sum(), None, 1e-6, "sums");
        let grouped = g.group_by_key(empty, None, 1e-6, "groups");
        let joined = g.join(src, empty, None, 1e-6, "joined");
        for rdd in [empty, reduced, grouped, joined] {
            assert_eval(&g, rdd, []);
        }
        let cogrouped = g.co_group(empty, src, None, 1e-6, "cogrouped");
        let want = Record::new(Key::Int(1), pair(ints(&[]), ints(&[10, 11])));
        assert_eval(&g, cogrouped, [want]);
    }

    /// Six keys summed from twelve records, then re-keyed by parity, so each
    /// key carries three values — key 0: {10, 14, 18}, key 1: {12, 16, 20}.
    fn reduced_then_rekeyed(g: &mut RddGraph) -> Rdd {
        let src = g.parallelize((0..12).map(|i| int(i % 6, 2 + i)).collect(), 3, "src");
        let reduced = g.reduce_by_key(src, sum(), None, 1e-6, "sums");
        let parity = |r: &Record, out: &mut Record| match r.key {
            Key::Int(k) => *out = int(k % 2, r.value.as_int()),
            _ => unreachable!("int keys"),
        };
        g.map(reduced, Arc::new(parity), 1e-6, "parity")
    }

    const GROUPS: [(i64, [i64; 3]); 2] = [(0, [10, 14, 18]), (1, [12, 16, 20])];

    /// Every pair of a group's values.
    fn cross((k, vals): (i64, [i64; 3])) -> Vec<Record> {
        let pairs = vals.iter().flat_map(|&l| vals.iter().map(move |&r| (l, r)));
        let pairs = pairs.map(|(l, r)| pair(Value::Int(l), Value::Int(r)));
        pairs.map(|v| Record::new(Key::Int(k), v)).collect()
    }

    #[test]
    fn a_self_join_meets_every_value_of_a_key_with_every_other() {
        let mut g = RddGraph::new();
        let x = reduced_then_rekeyed(&mut g);
        let joined = g.join(x, x, None, 1e-6, "self-join");
        let cogrouped = g.co_group(x, x, None, 1e-6, "self-cogroup");
        assert_eval(&g, joined, GROUPS.map(cross).concat());
        let both = |(k, v): (i64, [i64; 3])| Record::new(Key::Int(k), pair(ints(&v), ints(&v)));
        assert_eval(&g, cogrouped, GROUPS.map(both));
    }

    #[test]
    fn a_diamond_over_one_reduced_rdd_joins_its_own_keys() {
        let mut g = RddGraph::new();
        let y = reduced_then_rekeyed(&mut g);
        let even = |r: &Record| r.key == Key::Int(0);
        let evens = g.filter(y, Arc::new(even), 1e-6, "evens");
        let diamond = g.join(y, evens, None, 1e-6, "diamond");
        assert_eval(&g, diamond, cross(GROUPS[0]));
    }

    #[test]
    #[should_panic(expected = "sample past a shuffle")]
    fn a_sample_past_a_shuffle_is_refused() {
        let mut g = RddGraph::new();
        let x = reduced_then_rekeyed(&mut g);
        let sampled = g.sample(x, 0.5, 7, "sampled");
        Oracle::new(&g).records(sampled);
    }

    #[test]
    #[should_panic(expected = "block source")]
    fn a_block_source_is_refused() {
        let mut g = RddGraph::new();
        let gen: GenFn = Arc::new(|_, _, _: &mut dyn Emit| {});
        let blocks = g.from_blocks("file", gen, 1e-6, "blocks");
        Oracle::new(&g).records(blocks);
    }
}
