//! Runtime adaptivity: skew-aware hot-partition splitting.
//!
//! The static planner fixes every shuffle's partitioner and partition
//! count before the job runs; when the data turns out skewed, one hot
//! reduce partition stalls the whole stage. This module closes that gap
//! *inside* a job: by the time a reduce stage starts, its shuffle knows
//! the bytes of every run it holds, so the engine can decide —
//! identically at any worker count and under any fault plan — to split
//! hot partitions into sub-tasks before reduce work is dispatched.
//!
//! Determinism rules (the reason this is safe to default on):
//!
//! * Every decision here is a pure function of **data-plane** quantities:
//!   published per-bucket byte counts and the bucket contents themselves.
//!   Simulated durations never participate — fault injection perturbs
//!   timings, and decisions keyed on them would make faulted runs diverge
//!   from clean ones (the fault-equivalence suite pins byte tables equal).
//! * Sub-routing is **key-preserving**: all records of one key land in
//!   exactly one sub-bucket, so reduce/group merges per sub-bucket produce
//!   the same aggregates as the unsplit merge, and concatenating
//!   sub-outputs in sub order is a deterministic permutation of the
//!   unsplit output (identical sorted tables).
//! * Only **range-partitioned** shuffles split in place. Hash skew is
//!   handled between jobs by the re-planner
//!   (`core::adaptive`), which flips hot hash stages to range — this
//!   module's hash [`SubRouter`] exists as the fallback when a hot range
//!   bucket's keys are too concentrated to yield distinct sub-bounds.

use crate::config::WorkloadConf;
use crate::exec::{merge_runs, MergeKind, PARTITION_COST};
use crate::metrics::JobMetrics;
use crate::partitioner::{Partitioner, PartitionerKind, RangePartitioner};
use crate::rdd::RddGraph;
use crate::record::{Key, Record};
use crate::shuffle::Run;
use crate::stage::{Plan, StageRoot};
use std::sync::Arc;

/// Max/mean per-bucket byte skew above which a reduce partition counts as
/// hot. Shared with the re-planner's trigger
/// (`chopper::CostConstants::skew_retune_trigger` pins equality) so the
/// in-job splitter and the between-jobs re-planner never disagree on what
/// "hot" means.
pub const HOT_SKEW_TRIGGER: f64 = 2.0;

/// Upper bound on how many sub-tasks one hot partition splits into.
pub const MAX_SUBSPLIT: usize = 8;

/// Buckets smaller than this never split — below it the routing pass
/// costs more than the imbalance it removes.
pub const HOT_MIN_BYTES: u64 = 4096;

/// Between-jobs re-optimization hook: receives the finished job's
/// metrics, returns a replacement [`WorkloadConf`] to apply to subsequent
/// jobs (or `None` to keep the current one). Installed through
/// [`crate::EngineOptions::replan`].
pub type ReplanHook = Arc<dyn Fn(&ReplanInput) -> Option<WorkloadConf> + Send + Sync>;

/// Everything the re-planner sees after a job completes.
///
/// Byte and record counts in the stage metrics are data-plane
/// measurements — identical under any fault plan and any worker count.
/// Durations and task skew come from the *virtual* clock, bit-identical
/// across worker counts; a hook that must stay fault-invariant should key
/// decisions on the byte fields only.
#[derive(Debug, Clone)]
pub struct ReplanInput {
    /// The configuration the job ran under.
    pub conf: WorkloadConf,
    /// The job that just finished, exactly as [`crate::Context::jobs`]
    /// records it; `job.end` is the virtual clock at the decision point.
    pub job: JobMetrics,
}

/// The split decision for one shuffle: how many sub-tasks each reduce
/// partition runs as (1 = unsplit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPlan {
    /// Per reduce partition, the number of sub-tasks (>= 1).
    pub subs: Vec<usize>,
}

impl SplitPlan {
    /// Total virtual task count after splitting.
    pub fn total_tasks(&self) -> usize {
        self.subs.iter().sum()
    }

    /// Whether any partition actually splits.
    pub fn is_active(&self) -> bool {
        self.subs.iter().any(|&k| k > 1)
    }
}

/// Decides the split for one shuffle from its per-partition byte totals
/// (each reduce partition's runs, summed).
///
/// The trigger statistic is [`trace::skew_ratio`] — the same max/mean
/// computation behind a stage's `write_bucket_skew` — so the re-planner
/// and this splitter agree on what a hot shuffle is. A hot
/// bucket splits into `ceil(bytes/mean)` subs (capped at
/// [`MAX_SUBSPLIT`]): enough to bring its expected share back to the
/// mean. Returns `None` when nothing splits.
pub fn plan_splits(column_bytes: &[u64]) -> Option<SplitPlan> {
    if column_bytes.len() < 2 {
        return None;
    }
    let vals: Vec<f64> = column_bytes.iter().map(|&b| b as f64).collect();
    if trace::skew_ratio(&vals) < HOT_SKEW_TRIGGER {
        return None;
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let subs: Vec<usize> = column_bytes
        .iter()
        .map(|&b| {
            if b >= HOT_MIN_BYTES && (b as f64) > HOT_SKEW_TRIGGER * mean {
                ((b as f64 / mean).ceil() as usize).clamp(2, MAX_SUBSPLIT)
            } else {
                1
            }
        })
        .collect();
    let plan = SplitPlan { subs };
    plan.is_active().then_some(plan)
}

/// Whether `stage_idx`'s root shuffle may split in place, returning the
/// shuffle index when it may.
///
/// Evaluated from the plan and graph alone, never from runtime state.
/// Conditions: the root is a `ShuffleRead` over a **range**-partitioned
/// shuffle, this is that shuffle's only read, and the stage captures no
/// cache (splitting
/// re-orders records within a partition, which must not leak into a cached
/// RDD whose co-partitioning later stages rely on).
pub(crate) fn split_eligible(plan: &Plan, graph: &RddGraph, stage_idx: usize) -> Option<usize> {
    let stage = &plan.stages[stage_idx];
    let StageRoot::ShuffleRead { wide, shuffle } = stage.root else {
        return None;
    };
    if plan.shuffles[shuffle].scheme.kind != PartitionerKind::Range {
        return None;
    }
    if plan.shuffle_reads(shuffle) != 1 {
        return None;
    }
    if graph.node(wide).cached || stage.chain.iter().any(|&r| graph.node(r).cached) {
        return None;
    }
    Some(shuffle)
}

/// Base seed for sub-bound sampling of shuffle `plan_idx` in job `job_id`
/// — same framing as the shuffle partitioner seed, distinct tag byte.
pub(crate) fn split_seed(job_id: usize, plan_idx: usize) -> u64 {
    (job_id as u64) << 32 | (plan_idx as u64) << 8 | 0xC1
}

/// Routes the keys of one hot partition to its sub-buckets.
///
/// Range routing preserves key order across sub-buckets (every key in sub
/// `i` compares `<=` every key in sub `i+1`); hash routing is the
/// order-free fallback when sampled sub-bounds collapse. Both are
/// key-preserving: one key always maps to one sub-bucket.
pub enum SubRouter {
    /// Ordered sub-ranges from sampled quantile bounds.
    Range(RangePartitioner),
    /// Deterministic re-hash modulo `k` (remixed so it does not correlate
    /// with the parent hash partitioner's modulus).
    Hash(usize),
}

/// SplitMix64 finalizer — decorrelates `stable_hash` from the parent
/// partitioner's `hash % P` assignment before the sub-modulus.
fn remix(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9E3779B97F4A7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D049BB133111EB);
    h ^ (h >> 31)
}

impl SubRouter {
    /// Builds the router for one hot partition: sample the bucket's keys
    /// (seeded reservoir, same heuristic as `RangePartitioner`), and fall
    /// back to hash sub-routing when the sample yields no usable bounds
    /// (all sampled keys equal).
    pub fn build<'a, I>(keys: I, k: usize, seed: u64) -> SubRouter
    where
        I: IntoIterator<Item = &'a Key>,
    {
        let rp = RangePartitioner::from_sample(keys, k, seed);
        if rp.bounds().is_empty() && k > 1 {
            SubRouter::Hash(k)
        } else {
            SubRouter::Range(rp)
        }
    }

    /// Number of sub-buckets.
    pub fn k(&self) -> usize {
        match self {
            SubRouter::Range(rp) => rp.num_partitions(),
            SubRouter::Hash(k) => *k,
        }
    }

    /// Sub-bucket index for `key`, in `0..k()`.
    pub fn route(&self, key: &Key) -> usize {
        match self {
            SubRouter::Range(rp) => rp.partition(key),
            SubRouter::Hash(k) => (remix(key.stable_hash()) % *k as u64) as usize,
        }
    }
}

/// The virtual-task statistics of one sub-merge, measured during the
/// physical split; the driver builds one `TaskSpec` per sub from them.
#[derive(Debug, Clone)]
pub(crate) struct SubTaskStats {
    /// `(map task, encoded bytes received from it)`, one entry per map
    /// task with data for the split partition, in map order.
    pub per_map_bytes: Vec<(usize, u64)>,
    /// Records routed to this sub.
    pub fetched: u64,
    /// Routing + merge compute cost of this sub.
    pub cost: f64,
    /// Encoded bytes the sub-merge produced.
    pub out_bytes: u64,
}

/// Splits one reduce partition's buckets and merges each sub-bucket
/// independently, concatenating sub-outputs in sub order.
///
/// `maps` are the partition's incoming runs in map order, each with the
/// map task that wrote it, already materialized to owned rows. Each
/// record is routed once (charged at [`PARTITION_COST`]) and each sub runs
/// the unsplit task's merge ([`merge_runs`]) over its share, so the sum of
/// sub costs equals the unsplit cost plus the routing charge.
pub(crate) fn merge_split(
    maps: Vec<(usize, Vec<Record>)>,
    merge: &MergeKind,
    router: &SubRouter,
) -> (Vec<Record>, f64, Vec<SubTaskStats>) {
    let k = router.k();
    let runs = maps.len();
    // Route: per_sub[s][j] holds run j's records for sub s, in arrival order.
    let mut per_sub: Vec<Vec<Vec<Record>>> = (0..k).map(|_| vec![Vec::new(); runs]).collect();
    let mut per_map_bytes: Vec<Vec<(usize, u64)>> =
        vec![maps.iter().map(|&(m, _)| (m, 0)).collect(); k];
    for (j, (_, bucket)) in maps.into_iter().enumerate() {
        for rec in bucket {
            let s = router.route(&rec.key);
            per_map_bytes[s][j].1 += rec.encoded_size();
            per_sub[s][j].push(rec);
        }
    }
    let mut out: Vec<Record> = Vec::new();
    let mut total_cost = 0.0;
    let mut stats = Vec::with_capacity(k);
    for (s, mut sub_maps) in per_sub.into_iter().enumerate() {
        let fetched: u64 = sub_maps.iter().map(|b| b.len() as u64).sum();
        let mut cost = fetched as f64 * PARTITION_COST;
        let feed = |push: &mut dyn FnMut(Run<'_>)| {
            sub_maps.iter_mut().for_each(|b| push(Run::Moved(b)));
            fetched
        };
        let (records, _) = merge_runs(merge, feed, &mut cost);
        let out_bytes: u64 = records.iter().map(Record::encoded_size).sum();
        stats.push(SubTaskStats {
            per_map_bytes: per_map_bytes[s].clone(),
            fetched,
            cost,
            out_bytes,
        });
        total_cost += cost;
        out.extend(records);
    }
    (out, total_cost, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Value;
    use proptest::prelude::*;

    #[test]
    fn plan_splits_balanced_is_none() {
        assert_eq!(plan_splits(&[1000, 1001, 999, 1000]), None);
        assert_eq!(plan_splits(&[]), None);
        assert_eq!(plan_splits(&[50_000]), None, "single bucket never splits");
    }

    #[test]
    fn plan_splits_hot_bucket() {
        // One bucket ~4x the mean of the others.
        let bytes = [5_000u64, 5_000, 5_000, 60_000];
        let plan = plan_splits(&bytes).expect("skew above trigger");
        assert_eq!(plan.subs.len(), 4);
        assert_eq!(&plan.subs[..3], &[1, 1, 1]);
        assert!(plan.subs[3] >= 2 && plan.subs[3] <= MAX_SUBSPLIT);
        assert_eq!(plan.total_tasks(), 3 + plan.subs[3]);
        assert!(plan.is_active());
    }

    #[test]
    fn plan_splits_respects_min_bytes() {
        // Same ratios, tiny magnitudes: below HOT_MIN_BYTES nothing splits.
        assert_eq!(plan_splits(&[50, 50, 50, 600]), None);
    }

    /// The trigger statistic is literally [`trace::skew_ratio`], the one
    /// a stage's `write_bucket_skew` reports: both agree on the same inputs.
    #[test]
    fn trigger_matches_the_write_bucket_skew() {
        let bytes = [5_000u64, 5_000, 5_000, 60_000];
        let vals: Vec<f64> = bytes.iter().map(|&b| b as f64).collect();
        let write_skew = trace::skew_ratio(&vals);
        assert!(write_skew >= HOT_SKEW_TRIGGER);
        assert!(plan_splits(&bytes).is_some());
        // And a below-trigger table stays unsplit by the same statistic.
        let flat = [5_000u64; 4];
        let flat_vals: Vec<f64> = flat.iter().map(|&b| b as f64).collect();
        assert!(trace::skew_ratio(&flat_vals) < HOT_SKEW_TRIGGER);
        assert_eq!(plan_splits(&flat), None);
    }

    fn arb_key() -> impl Strategy<Value = Key> {
        prop_oneof![
            Just(Key::None),
            any::<i64>().prop_map(Key::Int),
            "[a-z]{0,8}".prop_map(|s| Key::Str(s.into())),
            (any::<i64>(), any::<i64>())
                .prop_map(|(a, b)| Key::Pair(Box::new(Key::Int(a)), Box::new(Key::Int(b)))),
        ]
    }

    proptest! {
        /// Range split preserves global key ordering: every key routed to
        /// sub `i` compares <= every key routed to sub `j > i`; and the
        /// sub-bucket sizes sum to the input size.
        #[test]
        fn range_split_preserves_order_and_mass(
            mut keys in proptest::collection::vec(any::<i64>().prop_map(Key::Int), 1..400),
            k in 2usize..6,
            seed in any::<u64>(),
        ) {
            let router = SubRouter::build(keys.iter(), k, seed);
            if let SubRouter::Range(_) = router {
                let mut routed: Vec<Vec<Key>> = vec![Vec::new(); k];
                for key in keys.drain(..) {
                    let s = router.route(&key);
                    prop_assert!(s < k);
                    routed[s].push(key);
                }
                let total: usize = routed.iter().map(Vec::len).sum();
                prop_assert_eq!(total, routed.iter().map(Vec::len).sum::<usize>());
                let mut last_max: Option<Key> = None;
                for sub in &routed {
                    if let Some(min) = sub.iter().min() {
                        if let Some(prev) = &last_max {
                            prop_assert!(prev <= min, "sub-buckets out of key order");
                        }
                        last_max = Some(sub.iter().max().unwrap().clone());
                    }
                }
            }
        }

        /// Hash sub-split routes every key — including `Key::Pair` and
        /// `Key::None` — to exactly one sub-bucket in range, and routing
        /// is a pure function of the key.
        #[test]
        fn hash_split_routes_every_key_once(
            keys in proptest::collection::vec(arb_key(), 1..200),
            k in 1usize..9,
        ) {
            let router = SubRouter::Hash(k);
            let mut counts = vec![0usize; k];
            for key in &keys {
                let s = router.route(key);
                prop_assert!(s < k);
                prop_assert_eq!(s, router.route(key), "routing must be deterministic");
                counts[s] += 1;
            }
            prop_assert_eq!(counts.iter().sum::<usize>(), keys.len());
        }

        /// Splitting then merging per sub preserves mass: sub byte/record
        /// sums equal the input's, and reduce aggregates match the unsplit
        /// merge (sorted).
        #[test]
        fn merge_split_preserves_sums(
            raw in proptest::collection::vec((0i64..50, 1i64..100), 1..300),
            k in 2usize..5,
            seed in any::<u64>(),
        ) {
            let records: Vec<Record> = raw
                .iter()
                .map(|&(key, v)| Record::new(Key::Int(key), Value::Int(v)))
                .collect();
            // Runs from every other map task, as a sparse column lists them.
            let maps: Vec<(usize, Vec<Record>)> = records
                .chunks(37)
                .enumerate()
                .map(|(j, run)| (2 * j, run.to_vec()))
                .collect();
            let in_bytes: u64 = records.iter().map(Record::encoded_size).sum();
            let router = SubRouter::build(records.iter().map(|r| &r.key), k, seed);
            let f: crate::ReduceFn =
                Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
            let (out, _cost, stats) =
                merge_split(maps.clone(), &MergeKind::Reduce(Arc::clone(&f), 1e-6), &router);
            let split_bytes: u64 = stats
                .iter()
                .flat_map(|s| s.per_map_bytes.iter().map(|&(_, b)| b))
                .sum();
            prop_assert_eq!(split_bytes, in_bytes, "sub-bucket bytes sum to the input");
            for s in &stats {
                let from: Vec<usize> = s.per_map_bytes.iter().map(|&(m, _)| m).collect();
                let want: Vec<usize> = maps.iter().map(|&(m, _)| m).collect();
                prop_assert_eq!(from, want, "bytes are booked to the run's map task");
            }
            let fetched: u64 = stats.iter().map(|s| s.fetched).sum();
            prop_assert_eq!(fetched, records.len() as u64);
            // Unsplit reference.
            let mut unsplit = crate::shuffle::ReduceMerge::new(f);
            maps.iter().for_each(|(_, part)| unsplit.push_slice(part));
            let (mut reference, _) = unsplit.finish();
            let mut out = out;
            let by_key = |a: &Record, b: &Record| a.key.cmp(&b.key);
            out.sort_by(by_key);
            reference.sort_by(by_key);
            prop_assert_eq!(out, reference, "split merge must aggregate identically");
        }
    }
}
