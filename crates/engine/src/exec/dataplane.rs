//! The per-task data plane: what one task reads, the fused narrow chain
//! it streams the records through, and the shuffle write it ends in.
//! Everything here is a function of the lineage graph and a
//! [`StageInput`]; nothing here knows a cluster, a clock or a ledger.

use super::stage::{ColumnRun, ShuffleData};
use crate::ops::{reserve_records, Emit, FilterFn, FlatMapFn, GenFn, MapFn, OpKind, ReduceFn};
use crate::partitioner::{Partitioner, PartitionerKind, PartitionerSpec};
use crate::pool::lock;
use crate::rdd::{Rdd, RddGraph};
use crate::record::{batch_size, IntoRecord, Key, Record};
use crate::shuffle::{
    bucketize_runs, bucketize_runs_shared, Combiner, ConcatMerge, GroupMerge, JoinMerge,
    ReduceMerge, Run, TaskArena, TaskRuns,
};
use numeric::Reservoir;
use std::sync::Arc;

/// Compute units charged per record for partition assignment during shuffle
/// writes.
pub(crate) const PARTITION_COST: f64 = 0.05e-6;
/// Compute units charged per record for range-partitioner sampling.
const SAMPLE_COST: f64 = 0.02e-6;
/// Compute units charged per fetched record during reduce-side merges.
const MERGE_BASE_COST: f64 = 0.03e-6;

#[derive(Clone)]
pub(crate) enum MergeKind {
    Reduce(ReduceFn, f64),
    Group(f64),
    Concat,
}

impl ShuffleData {
    /// Hands `run` to `push` and returns its record count. The records are
    /// moved out in place under the row's lock — no per-reducer copy of a
    /// column ever exists, and the row's one allocation is freed with the
    /// table, by the driver — or lent when the shuffle has more than one
    /// read.
    fn with_run(&self, run: &ColumnRun, push: &mut impl FnMut(Run<'_>)) -> u64 {
        let (start, end) = (run.start as usize, run.end as usize);
        let mut row = lock(&self.rows[run.map as usize]);
        let records = &mut row[start..end];
        if self.shared {
            push(Run::Shared(records));
        } else {
            push(Run::Moved(records));
        }
        (end - start) as u64
    }

    /// Feeds reduce partition `col`'s runs to `push` in map-task order;
    /// returns the records and bytes fetched.
    fn drain_column(&self, col: usize, mut push: impl FnMut(Run<'_>)) -> (u64, u64) {
        let (mut fetched, mut bytes) = (0u64, 0u64);
        for run in self.column(col) {
            fetched += self.with_run(run, &mut push);
            bytes += run.bytes;
        }
        (fetched, bytes)
    }
}

/// A cached RDD's partitions and their encoded sizes, as the tasks that
/// captured them measured them: partition `i` feeds task `i`.
#[derive(Clone, Copy)]
pub(super) struct CachedParts<'s> {
    pub(super) parts: &'s [Arc<Vec<Record>>],
    pub(super) sizes: &'s [u64],
}

/// Where one join side's data comes from.
pub(super) enum JoinSide<'s> {
    /// A shuffle, consumed run by run in map order.
    Shuffle(&'s ShuffleData),
    /// A cached co-partitioned RDD.
    Narrow(CachedParts<'s>),
}

impl JoinSide<'_> {
    /// Feeds partition `col` of this side to `push`; returns the records
    /// and bytes fetched.
    fn drain(&self, col: usize, mut push: impl FnMut(Run<'_>)) -> (u64, u64) {
        match self {
            JoinSide::Shuffle(data) => data.drain_column(col, push),
            JoinSide::Narrow(cached) => {
                let part = &cached.parts[col];
                push(Run::Shared(part));
                (part.len() as u64, cached.sizes[col])
            }
        }
    }
}

/// The data-plane view of a stage's inputs: what task `i` of `n` reads.
pub(super) enum StageInput<'s> {
    /// Slice `i` of an in-memory collection.
    Slice(&'s Arc<Vec<Record>>),
    /// Split `i` of a deterministic generator.
    Gen {
        gen: &'s GenFn,
        cost_per_record: f64,
    },
    /// Partition `i` of a cached RDD.
    Cached(CachedParts<'s>),
    /// Column `i` of a shuffle, merged as the wide op prescribes. Hot
    /// columns of `split` merge as several sub-tasks (see
    /// [`crate::adaptive`]); `split_seed` feeds their sub-bound samples.
    Shuffle {
        data: &'s ShuffleData,
        merge: MergeKind,
        split: Option<crate::adaptive::SplitPlan>,
        split_seed: u64,
    },
    /// Partition `i` of both sides of a join or co-group.
    Join {
        left: JoinSide<'s>,
        right: JoinSide<'s>,
        /// A co-group, which keeps a key only one side has; else a join.
        outer: bool,
        cost: f64,
    },
}

/// How a stage's tasks bucketize their output for the shuffle they feed.
pub(super) struct ShuffleWriter {
    pub(super) spec: PartitionerSpec,
    /// Map-side combine function (reduce-by-key consumers only).
    pub(super) combine: Option<ReduceFn>,
    pub(super) combine_cost: f64,
    /// Seeds the range bounds and the per-task key samples.
    pub(super) seed: u64,
}

/// One map task's shuffle output.
pub(super) struct MapWrite {
    pub(super) runs: TaskRuns,
    /// Compute charged for partitioning, combining and range sampling.
    pub(super) cost: f64,
}

impl ShuffleWriter {
    pub(super) fn is_range(&self) -> bool {
        self.spec.kind == PartitionerKind::Range
    }

    /// Orders a finished task's records by reduce partition, *moving* them
    /// when the task owns its output (the common case) and cloning when
    /// the records window a shared cache partition.
    pub(super) fn write(
        &self,
        records: TaskRecords,
        partitioner: &dyn Partitioner,
        arena: &mut TaskArena,
    ) -> MapWrite {
        let (n, combine) = (records.len() as u64, self.combine.as_ref());
        let (runs, combine_ops) = match records {
            TaskRecords::Owned(v) => bucketize_runs(v, partitioner, combine, arena),
            shared => bucketize_runs_shared(shared.as_slice(), partitioner, combine, arena),
        };
        self.charged(runs, n, combine_ops)
    }

    /// Closes a streamed combining write: the sink has already folded
    /// every record the task's chain produced.
    pub(super) fn finish(&self, sink: CombineSink<'_>) -> MapWrite {
        let (runs, combine_ops) = sink.combiner.finish();
        self.charged(runs, sink.counted.records, combine_ops)
    }

    /// `runs` with the compute charged for writing them: partitioning (and
    /// range sampling) per record the task produced, `n` of them, plus the
    /// combine applications.
    fn charged(&self, runs: TaskRuns, n: u64, combine_ops: u64) -> MapWrite {
        let n = n as f64;
        let mut cost = n * PARTITION_COST + combine_ops as f64 * self.combine_cost;
        if self.is_range() {
            cost += n * SAMPLE_COST;
        }
        MapWrite { runs, cost }
    }
}

/// Per-task reservoir sampling for range-partitioned shuffle writes: each
/// map task samples its own output during the compute pass instead of a
/// serial driver-side scan over every task's records.
pub(super) struct SampleSpec {
    /// Reservoir capacity per task.
    pub(super) cap: usize,
    /// Stage-level seed; each task derives its own stream from it.
    pub(super) seed: u64,
}

/// A task's output records: either owned by the task, or a window into a
/// shared source/cache partition that the narrow chain never needed to copy.
pub(super) enum TaskRecords {
    Owned(Vec<Record>),
    Shared(Arc<Vec<Record>>, usize, usize),
}

impl Default for TaskRecords {
    fn default() -> Self {
        TaskRecords::Owned(Vec::new())
    }
}

impl TaskRecords {
    pub(super) fn as_slice(&self) -> &[Record] {
        match self {
            TaskRecords::Owned(v) => v,
            TaskRecords::Shared(data, start, end) => &data[*start..*end],
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

/// One cached partition as the task that computed it captured it.
pub(super) struct Capture {
    pub(super) rdd: Rdd,
    pub(super) part: Arc<Vec<Record>>,
    /// Encoded size of `part`, measured once, here.
    pub(super) bytes: u64,
}

/// Captures the records of `rdd` for cache persistence and leaves the
/// task reading the captured partition. Nothing is copied: an owned vector
/// moves into its `Arc`, a shared window covering a whole partition is
/// captured as that partition (only a partial window of a source
/// collection is cloned).
fn capture(rdd: Rdd, records: &mut TaskRecords) -> Capture {
    let part = match std::mem::take(records) {
        TaskRecords::Owned(v) => Arc::new(v),
        TaskRecords::Shared(data, start, end) if start == 0 && end == data.len() => data,
        TaskRecords::Shared(data, start, end) => Arc::new(data[start..end].to_vec()),
    };
    *records = TaskRecords::Shared(Arc::clone(&part), 0, part.len());
    let bytes = batch_size(&part);
    Capture { rdd, part, bytes }
}

pub(super) struct TaskOut {
    /// The task's output; empty once a shuffle write has consumed it, and
    /// from the start when the task streamed it into one.
    pub(super) records: TaskRecords,
    /// Count and encoded size of the records the task produced.
    pub(super) out_records: u64,
    pub(super) out_bytes: u64,
    pub(super) cost: f64,
    pub(super) input_records: u64,
    pub(super) input_bytes: u64,
    pub(super) captures: Vec<Capture>,
    /// Keys reservoir-sampled from the final records (range shuffles only).
    pub(super) sample: Vec<Key>,
    /// Per-sub virtual-task statistics when this task ran as an adaptive
    /// split (`None` for unsplit tasks, and for a hot partition whose keys
    /// all routed to one sub). The driver turns these into one `TaskSpec`
    /// per sub.
    pub(super) sub_stats: Option<Vec<crate::adaptive::SubTaskStats>>,
}

/// One narrow op compiled for a fused streaming pass.
enum FusedOp<'g> {
    Map(&'g MapFn),
    FlatMap(&'g FlatMapFn),
    Filter(&'g FilterFn),
    Sample {
        fraction: f64,
        rng: numeric::XorShift64,
    },
}

/// A fused op plus its observed input count, so per-op compute cost can be
/// charged after the pass exactly as the op-at-a-time loop did.
struct OpState<'g> {
    op: FusedOp<'g>,
    inputs: u64,
}

/// Where a fused pass puts the records that survive it.
trait RecordSink {
    fn push<R: IntoRecord>(&mut self, rec: R);
    /// About `additional` more records follow (see [`Emit::reserve`]).
    fn reserve(&mut self, _additional: usize) {}
}

/// Collects the pass's output; a borrowed record is cloned here.
impl RecordSink for Vec<Record> {
    fn push<R: IntoRecord>(&mut self, rec: R) {
        Vec::push(self, rec.into_record());
    }
    fn reserve(&mut self, additional: usize) {
        reserve_records(self, additional);
    }
}

/// Counts and sizes every record the narrow chain produces — the task's
/// output as the metrics and the simulator's memory charge see it — and
/// keeps none of them.
#[derive(Default)]
pub(super) struct CountSink {
    records: u64,
    bytes: u64,
}

impl RecordSink for CountSink {
    #[inline]
    fn push<R: IntoRecord>(&mut self, rec: R) {
        self.records += 1;
        self.bytes += rec.borrow().encoded_size();
    }
}

/// A task's streamed shuffle write: counts every record like a
/// [`CountSink`] and folds it into the map-side combine on the spot.
pub(super) struct CombineSink<'a> {
    combiner: Combiner<'a>,
    counted: CountSink,
}

impl<'a> CombineSink<'a> {
    pub(super) fn new(combiner: Combiner<'a>) -> Self {
        CombineSink {
            combiner,
            counted: CountSink::default(),
        }
    }
}

impl RecordSink for CombineSink<'_> {
    #[inline]
    fn push<R: IntoRecord>(&mut self, rec: R) {
        self.counted.push(rec.borrow());
        self.combiner.push(rec);
    }
}

/// What a task's output ends in.
pub(super) enum Sink<'a, 'c> {
    /// Kept: the task returns it in [`TaskOut::records`].
    Collect,
    /// Counted and sized, none of it kept.
    Count(CountSink),
    /// Folded into a map-side combine.
    Combine(&'a mut CombineSink<'c>),
}

/// The [`Emit`] a generator or a flat-map closure is handed: what it
/// produces continues through the remaining fused ops into the task's
/// sink. A size hint reaches the sink only when no op stands between.
struct Downstream<'a, 'g, S> {
    rest: &'a mut [OpState<'g>],
    out: &'a mut S,
}

impl<S: RecordSink> Emit for Downstream<'_, '_, S> {
    #[inline]
    fn emit(&mut self, rec: Record) {
        feed(self.rest, rec, self.out);
    }
    #[inline]
    fn lend(&mut self, rec: &Record) {
        feed(self.rest, rec, self.out);
    }
    fn reserve(&mut self, additional: usize) {
        if self.rest.is_empty() {
            self.out.reserve(additional);
        }
    }
}

/// A source split on its way [`Downstream`], counted and sized as the
/// task's input.
struct Generated<'a, 'g, S> {
    down: Downstream<'a, 'g, S>,
    counted: CountSink,
}

impl<S: RecordSink> Emit for Generated<'_, '_, S> {
    #[inline]
    fn emit(&mut self, rec: Record) {
        self.counted.push(&rec);
        self.down.emit(rec);
    }
    #[inline]
    fn lend(&mut self, rec: &Record) {
        self.counted.push(rec);
        self.down.lend(rec);
    }
    fn reserve(&mut self, additional: usize) {
        self.down.reserve(additional);
    }
}

/// Streams one record, owned or borrowed, through the remaining fused
/// ops. A borrowed record is cloned only if the sink keeps it; what a
/// `Map` produces continues owned, what a `FlatMap` produces continues as
/// the closure handed it over ([`Emit::emit`] or [`Emit::lend`]).
///
/// Records arrive at each op in the same order as the op-at-a-time loop
/// (every narrow op is order-preserving), so per-op `Sample` RNG draws are
/// bit-identical to the unfused execution.
fn feed<R: IntoRecord, S: RecordSink>(ops: &mut [OpState<'_>], rec: R, out: &mut S) {
    let Some((head, rest)) = ops.split_first_mut() else {
        out.push(rec);
        return;
    };
    head.inputs += 1;
    match &mut head.op {
        FusedOp::Map(f) => feed(rest, f(rec.borrow()), out),
        FusedOp::FlatMap(f) => f(rec.borrow(), &mut Downstream { rest, out }),
        FusedOp::Filter(f) => {
            if f(rec.borrow()) {
                feed(rest, rec, out);
            }
        }
        FusedOp::Sample { fraction, rng } => {
            if rng.next_f64() < *fraction {
                feed(rest, rec, out);
            }
        }
    }
}

/// Task `index` of a stage's `of` tasks.
#[derive(Clone, Copy)]
pub(super) struct TaskId {
    pub(super) index: usize,
    pub(super) of: usize,
}

/// What a task's next fused pass reads.
enum Root<'s> {
    /// Records the task holds, its own or a shared window.
    Records(TaskRecords),
    /// A source split, generated into the pass that reads it.
    Gen {
        gen: &'s GenFn,
        cost_per_record: f64,
    },
}

impl Default for Root<'_> {
    fn default() -> Self {
        Root::Records(TaskRecords::default())
    }
}

/// A task's root input and what reading it has been charged so far. A
/// generated split is counted, sized and charged by the pass that
/// produces it.
struct RootRead<'s> {
    root: Root<'s>,
    input_records: u64,
    input_bytes: u64,
    /// Generation or merge compute charged so far.
    cost: f64,
    sub_stats: Option<Vec<crate::adaptive::SubTaskStats>>,
}

impl RootRead<'_> {
    /// One fused pass: every record of the root — moved if the task owns
    /// them, lent if they window a shared partition, generated on the spot
    /// if they are a source split — through `ops` into `out`. Leaves the
    /// root empty.
    fn pass<S: RecordSink>(&mut self, task: TaskId, ops: &mut [OpState<'_>], out: &mut S) {
        match std::mem::take(&mut self.root) {
            Root::Records(TaskRecords::Owned(v)) => {
                for rec in v {
                    feed(ops, rec, out);
                }
            }
            Root::Records(TaskRecords::Shared(data, start, end)) => {
                for rec in &data[start..end] {
                    feed(ops, rec, out);
                }
            }
            Root::Gen {
                gen,
                cost_per_record,
            } => {
                let mut split = Generated {
                    down: Downstream { rest: ops, out },
                    counted: CountSink::default(),
                };
                gen(task.index, task.of, &mut split);
                let CountSink { records, bytes } = split.counted;
                (self.input_records, self.input_bytes) = (records, bytes);
                self.cost += records as f64 * cost_per_record;
            }
        }
    }

    /// The root as records the task holds. A split still to be generated
    /// is collected here, into a vector its generator sizes: a cached
    /// source, or one whose task keeps its output and has no op to stream
    /// it through.
    fn records(&mut self, task: TaskId) -> &mut TaskRecords {
        if matches!(self.root, Root::Gen { .. }) {
            let mut split = Vec::new();
            self.pass(task, &mut [], &mut split);
            self.root = Root::Records(TaskRecords::Owned(split));
        }
        match &mut self.root {
            Root::Records(records) => records,
            Root::Gen { .. } => unreachable!("the split was just collected"),
        }
    }
}

/// Reads task `task`'s root input.
///
/// Shuffle and join roots move their runs out of the producer's table
/// in map-task order and fold them straight into the streaming merge
/// accumulators — the merge sees the same record stream whatever the
/// worker count, so results, byte counts, range samples, and every
/// simulated cost are deterministic. Slice/Cached roots are borrowed, not
/// copied; a source split is not generated yet.
fn read_root<'s>(input: &StageInput<'s>, task: TaskId) -> RootRead<'s> {
    let i = task.index;
    let mut cost = 0.0;
    let mut sub_stats = None;
    let (root, input_records, input_bytes) = match input {
        StageInput::Slice(data) => {
            let (start, end) = (i * data.len() / task.of, (i + 1) * data.len() / task.of);
            let slice = &data[start..end];
            let shared = TaskRecords::Shared(Arc::clone(data), start, end);
            (Root::Records(shared), slice.len() as u64, batch_size(slice))
        }
        // Counted, sized and charged by the pass that generates it.
        &StageInput::Gen {
            gen,
            cost_per_record,
        } => {
            let split = Root::Gen {
                gen,
                cost_per_record,
            };
            (split, 0, 0)
        }
        StageInput::Cached(cached) => {
            let data = &cached.parts[i];
            let shared = TaskRecords::Shared(Arc::clone(data), 0, data.len());
            (Root::Records(shared), data.len() as u64, cached.sizes[i])
        }
        StageInput::Shuffle {
            data,
            merge,
            split,
            split_seed,
        } => {
            let k = split.as_ref().map_or(1, |sp| sp.subs[i]);
            let (records, fetched, bytes) = if k > 1 {
                // Adaptive hot-partition split: take the column in map
                // order, route each record to one of `k` sub-buckets, and
                // merge each non-empty sub independently. The routing is
                // key-preserving, so aggregates match the unsplit merge;
                // concatenation in sub order keeps the output deterministic.
                // Keys that all route to one sub merge unsplit.
                let column = data.column(i);
                let maps: Vec<(usize, Vec<Record>)> = column
                    .iter()
                    .map(|run| {
                        let mut records = Vec::new();
                        data.with_run(run, &mut |r| records = r.into_records());
                        (run.map as usize, records)
                    })
                    .collect();
                let fetched: u64 = maps.iter().map(|(_, b)| b.len() as u64).sum();
                let bytes: u64 = column.iter().map(|r| r.bytes).sum();
                let seed = split_seed ^ ((i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                let router = crate::adaptive::SubRouter::build(
                    maps.iter().flat_map(|(_, b)| b).map(|r| &r.key),
                    k,
                    seed,
                );
                let (records, merge_cost, stats) =
                    crate::adaptive::merge_split(maps, merge, &router);
                cost += merge_cost;
                sub_stats = stats;
                (records, fetched, bytes)
            } else {
                let mut bytes = 0;
                let feed = |push: &mut dyn FnMut(Run<'_>)| {
                    let (fetched, b) = data.drain_column(i, push);
                    bytes = b;
                    fetched
                };
                let (records, fetched) = merge_runs(merge, feed, &mut cost);
                (records, fetched, bytes)
            };
            (Root::Records(TaskRecords::Owned(records)), fetched, bytes)
        }
        StageInput::Join {
            left,
            right,
            outer,
            cost: c,
        } => {
            let mut m = JoinMerge::two_sided(*outer);
            let (fetched, bytes) = drain_sides(left, right, i, &mut m);
            cost += fetched as f64 * (MERGE_BASE_COST + c);
            let (records, probes) = m.finish();
            cost += probes as f64 * MERGE_BASE_COST;
            (Root::Records(TaskRecords::Owned(records)), fetched, bytes)
        }
    };
    RootRead {
        root,
        input_records,
        input_bytes,
        cost,
        sub_stats,
    }
}

/// Feeds partition `col` of both sides of a join or co-group into the
/// table `m`: the left side fully, the seal, then the right, so the table
/// sees both streams in map-task order. Returns the records and bytes
/// fetched.
fn drain_sides(
    left: &JoinSide<'_>,
    right: &JoinSide<'_>,
    col: usize,
    m: &mut JoinMerge,
) -> (u64, u64) {
    let l = left.drain(col, |run| m.push_run(run, true));
    m.seal_left();
    let r = right.drain(col, |run| m.push_run(run, false));
    (l.0 + r.0, l.1 + r.1)
}

/// The reduce-side merge of a single-parent wide op: `feed` pushes the
/// task's runs, in map-task order, into the accumulator `kind` calls for
/// and returns how many records that was. Returns the merged records and
/// that count; the merge compute is added to `cost`. A whole reduce
/// partition and each sub of an adaptively split one merge here, so both
/// charge in the same `f64` order.
pub(crate) fn merge_runs(
    kind: &MergeKind,
    feed: impl FnOnce(&mut dyn FnMut(Run<'_>)) -> u64,
    cost: &mut f64,
) -> (Vec<Record>, u64) {
    match kind {
        MergeKind::Reduce(f, c) => {
            let mut m = ReduceMerge::new(Arc::clone(f));
            let fetched = feed(&mut |run| m.push_run(run));
            *cost += fetched as f64 * MERGE_BASE_COST;
            let (out, ops) = m.finish();
            *cost += ops as f64 * c;
            (out, fetched)
        }
        MergeKind::Group(c) => {
            let mut m = GroupMerge::new();
            let fetched = feed(&mut |run| m.push_run(run));
            *cost += fetched as f64 * MERGE_BASE_COST;
            *cost += fetched as f64 * c;
            (m.finish(), fetched)
        }
        MergeKind::Concat => {
            let mut m = ConcatMerge::new();
            let fetched = feed(&mut |run| m.push_run(run));
            *cost += fetched as f64 * MERGE_BASE_COST;
            (m.finish(), fetched)
        }
    }
}

/// Runs one task: root input, narrow chain, cache captures, and — for
/// range-shuffle writes — a reservoir sample of the output keys.
/// `capture_root` names the root RDD when its output must be cached.
/// Unless `sink` collects, the task's output goes into it record by record
/// and [`TaskOut::records`] stays empty.
pub(super) fn compute_task(
    graph: &RddGraph,
    input: &StageInput<'_>,
    chain: &[Rdd],
    task: TaskId,
    capture_root: Option<Rdd>,
    range_sample: Option<&SampleSpec>,
    mut sink: Sink<'_, '_>,
) -> TaskOut {
    let mut root = read_root(input, task);
    let mut captures = Vec::new();
    if let Some(root_rdd) = capture_root {
        captures.push(capture(root_rdd, root.records(task)));
    }
    let records = run_chain(graph, chain, task, &mut root, &mut captures, &mut sink);
    let sample = match range_sample {
        Some(spec) => {
            let task_seed = spec.seed ^ ((task.index as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            let mut res = Reservoir::new(spec.cap, task_seed);
            for r in records.as_slice() {
                res.offer(r.key.clone());
            }
            res.into_items()
        }
        None => Vec::new(),
    };
    let (out_records, out_bytes) = match &sink {
        Sink::Collect => (records.len() as u64, batch_size(records.as_slice())),
        Sink::Count(counted) | Sink::Combine(CombineSink { counted, .. }) => {
            (counted.records, counted.bytes)
        }
    };
    TaskOut {
        records,
        out_records,
        out_bytes,
        cost: root.cost,
        input_records: root.input_records,
        input_bytes: root.input_bytes,
        captures,
        sample,
        sub_stats: root.sub_stats,
    }
}

/// Applies the narrow chain to the task's root as fused streaming passes,
/// one per segment. A segment ends at (and includes) the next cached node:
/// its output is collected whole, captured by move, and the task reads on
/// from the captured partition. The last pass writes into `sink` unless
/// that collects — with no ops left if the chain ended in a cached node —
/// and nothing is returned; a collecting task gets the last pass's output
/// back, and an empty chain passes its root straight through. A source
/// split is generated into the first pass, whatever that ends in. Per-op
/// compute is added to the root's cost.
fn run_chain(
    graph: &RddGraph,
    chain: &[Rdd],
    task: TaskId,
    root: &mut RootRead<'_>,
    captures: &mut Vec<Capture>,
    sink: &mut Sink<'_, '_>,
) -> TaskRecords {
    let mut counts: Vec<u64> = vec![0; chain.len()];
    let mut pos = 0;
    let mut streamed = matches!(sink, Sink::Collect);
    while pos < chain.len() || !streamed {
        let seg_end = chain[pos..]
            .iter()
            .position(|&r| graph.node(r).cached)
            .map(|off| pos + off + 1)
            .unwrap_or(chain.len());
        let mut ops: Vec<OpState<'_>> = chain[pos..seg_end]
            .iter()
            .map(|&r| OpState {
                op: match &graph.node(r).op {
                    OpKind::Map { f } | OpKind::MapValues { f } => FusedOp::Map(f),
                    OpKind::FlatMap { f } => FusedOp::FlatMap(f),
                    OpKind::Filter { f } => FusedOp::Filter(f),
                    OpKind::Sample { fraction, seed } => FusedOp::Sample {
                        fraction: *fraction,
                        rng: numeric::XorShift64::new(seed ^ ((task.index as u64 + 1) * 0x9E37)),
                    },
                    other => unreachable!("wide op {other:?} inside a narrow chain"),
                },
                inputs: 0,
            })
            .collect();
        let cached = chain[pos..seg_end]
            .last()
            .filter(|&&r| graph.node(r).cached);
        // A segment that ends in a cached node is never the streamed one.
        match (&mut *sink, cached) {
            (Sink::Count(counted), None) => root.pass(task, &mut ops, counted),
            (Sink::Combine(combine), None) => root.pass(task, &mut ops, &mut **combine),
            (Sink::Collect, _) | (_, Some(_)) => {
                let mut out = Vec::new();
                root.pass(task, &mut ops, &mut out);
                root.root = Root::Records(TaskRecords::Owned(out));
                if let Some(&rdd) = cached {
                    captures.push(capture(rdd, root.records(task)));
                }
            }
        }
        streamed |= cached.is_none();
        for (off, st) in ops.iter().enumerate() {
            counts[pos + off] = st.inputs;
        }
        pos = seg_end;
    }

    // Charge per-op compute cost in chain order, after the root costs —
    // the same f64 accumulation sequence as an op-at-a-time loop, so
    // simulated stage timings are bit-identical.
    for (i, &r) in chain.iter().enumerate() {
        root.cost += counts[i] as f64 * graph.node(r).cost_per_record;
    }
    std::mem::take(root.records(task))
}

#[cfg(test)]
mod tests {
    use super::super::fixture::{sum, word_records};
    use super::*;
    use crate::partitioner::build_partitioner;
    use crate::record::Value;

    /// The seam the module doc claims: nothing in this file, its tests
    /// included, names the engine context — so the kernels here can be
    /// driven (as the tests below do) from an `RddGraph::new()` and a
    /// [`StageInput`] alone, with no cluster, clock or ledger behind them.
    #[test]
    fn the_data_plane_never_names_the_context() {
        let banned = concat!("Con", "text");
        for (n, line) in include_str!("dataplane.rs").lines().enumerate() {
            assert!(!line.contains(banned), "dataplane.rs:{}: {line}", n + 1);
        }
    }

    /// One fused op per letter: `m`ap, fla`x`-map, `f`ilter, `s`ample.
    fn fused_ops<'g>(
        spec: &str,
        map: &'g MapFn,
        flat: &'g FlatMapFn,
        filter: &'g FilterFn,
    ) -> Vec<OpState<'g>> {
        let op = |c| match c {
            'm' => FusedOp::Map(map),
            'x' => FusedOp::FlatMap(flat),
            'f' => FusedOp::Filter(filter),
            _ => FusedOp::Sample {
                fraction: 0.6,
                rng: numeric::XorShift64::new(17),
            },
        };
        let state = |c| OpState {
            op: op(c),
            inputs: 0,
        };
        spec.chars().map(state).collect()
    }

    #[test]
    fn chain_step_is_the_same_for_an_owned_and_a_shared_root() {
        let map: MapFn =
            Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() * 3)));
        // Odd fan-outs lend one scratch record, even ones give each away.
        let flat: FlatMapFn = Arc::new(|r: &Record, out: &mut dyn Emit| {
            let fan_out = r.value.as_int() % 4;
            let mut scratch = r.clone();
            for j in 0..fan_out {
                scratch.key = Key::Int(j);
                if fan_out % 2 == 1 {
                    out.lend(&scratch);
                } else {
                    out.emit(scratch.clone());
                }
            }
        });
        let filter: FilterFn = Arc::new(|r: &Record| r.value.as_int() % 2 == 0);
        let input: Vec<Record> = (0..300)
            .map(|i| Record::new(Key::Int(i % 11), Value::Int(i)))
            .collect();
        for spec in ["", "fs", "fms", "sxf", "msxs"] {
            let run = |owned: bool| {
                let mut ops = fused_ops(spec, &map, &flat, &filter);
                let mut out = Vec::new();
                for rec in &input {
                    if owned {
                        feed(&mut ops, rec.clone(), &mut out);
                    } else {
                        feed(&mut ops, rec, &mut out);
                    }
                }
                let inputs: Vec<u64> = ops.iter().map(|st| st.inputs).collect();
                (out, inputs)
            };
            let (owned, shared) = (run(true), run(false));
            assert_eq!(owned, shared, "chain {spec:?}");
            assert!(!owned.0.is_empty(), "chain {spec:?} keeps something");
        }
    }

    /// One task of `src → flat-map → filter`, written to a 5-way hash
    /// shuffle with a map-side combine: streamed into the combine, or
    /// collected first and handed to the writer.
    fn combining_task(
        graph: &RddGraph,
        chain: &[Rdd],
        data: &Arc<Vec<Record>>,
        index: usize,
        streamed: bool,
    ) -> (TaskOut, MapWrite) {
        let writer = ShuffleWriter {
            spec: PartitionerSpec::hash(5),
            combine: Some(sum()),
            combine_cost: 1e-6,
            seed: 9,
        };
        let partitioner = build_partitioner(writer.spec, std::iter::empty(), writer.seed);
        let f = writer.combine.as_ref().expect("combining writer");
        let arena = &mut TaskArena::default();
        let task = TaskId { index, of: 3 };
        let input = StageInput::Slice(data);
        if streamed {
            let mut sink = CombineSink::new(Combiner::new(&*partitioner, f, arena));
            let stream = Sink::Combine(&mut sink);
            let out = compute_task(graph, &input, chain, task, None, None, stream);
            assert!(
                out.records.as_slice().is_empty(),
                "a streamed task holds nothing"
            );
            (out, writer.finish(sink))
        } else {
            let mut out = compute_task(graph, &input, chain, task, None, None, Sink::Collect);
            let records = std::mem::take(&mut out.records);
            (out, writer.write(records, &*partitioner, arena))
        }
    }

    #[test]
    fn a_streamed_combine_write_equals_the_collected_one_cached_tail_or_not() {
        let mut graph = RddGraph::new();
        let data: Vec<Record> = (0..240)
            .map(|i| Record::new(Key::Int(i % 17), Value::Int(i)))
            .collect();
        let src = graph.parallelize(data.clone(), 3, "src");
        let spread = graph.flat_map(
            src,
            Arc::new(|r: &Record, out: &mut dyn Emit| {
                for j in 0..r.value.as_int() % 3 {
                    out.emit(Record::new(
                        Key::Int(r.value.as_int() % 7 + j),
                        r.value.clone(),
                    ));
                }
            }),
            2e-6,
            "spread",
        );
        let kept = graph.filter(
            spread,
            Arc::new(|r: &Record| r.value.as_int() % 5 != 0),
            1e-6,
            "kept",
        );
        let (chain, data) = ([spread, kept], Arc::new(data));
        for index in 0..3 {
            graph.set_uncached(kept);
            let (collected, collected_write) = combining_task(&graph, &chain, &data, index, false);
            assert!(collected.out_records > 0, "task {index} keeps something");
            let task = TaskId { index, of: 3 };
            let chain_output = compute_task(
                &graph,
                &StageInput::Slice(&data),
                &chain,
                task,
                None,
                None,
                Sink::Collect,
            )
            .records;
            for (cached_tail, streamed) in [(false, true), (true, true), (true, false)] {
                if cached_tail {
                    graph.set_cached(kept);
                } else {
                    graph.set_uncached(kept);
                }
                let (out, write) = combining_task(&graph, &chain, &data, index, streamed);
                let case = format!("task {index} cached tail {cached_tail} streamed {streamed}");
                assert_eq!(out.out_records, collected.out_records, "{case}");
                assert_eq!(out.out_bytes, collected.out_bytes, "{case}");
                assert_eq!(out.input_records, collected.input_records, "{case}");
                assert_eq!(out.cost.to_bits(), collected.cost.to_bits(), "{case}");
                assert_eq!(
                    write.cost.to_bits(),
                    collected_write.cost.to_bits(),
                    "{case}"
                );
                assert_eq!(write.runs.spans, collected_write.runs.spans, "{case}");
                assert_eq!(write.runs.records, collected_write.runs.records, "{case}");
                if cached_tail {
                    // The capture is the chain's whole pre-combine output.
                    let [Capture { rdd, part, bytes }] = out.captures.as_slice() else {
                        panic!("{case}: one capture")
                    };
                    assert_eq!(*rdd, kept, "{case}");
                    assert_eq!(part.as_slice(), chain_output.as_slice(), "{case}");
                    assert_eq!(*bytes, batch_size(part), "{case}");
                } else {
                    assert!(out.captures.is_empty(), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_capture_moves_an_owned_output_and_shares_a_whole_partition() {
        let owned: Vec<Record> = word_records();
        let at = owned.as_ptr();
        let mut records = TaskRecords::Owned(owned);
        let rdd = Rdd(7);
        let Capture { part, bytes, .. } = capture(rdd, &mut records);
        assert_eq!(part.as_ptr(), at, "the vector moved into its Arc");
        assert_eq!(bytes, batch_size(&part), "sized as captured");
        assert!(
            matches!(&records, TaskRecords::Shared(data, 0, 200) if Arc::ptr_eq(data, &part)),
            "the task reads on from the captured partition"
        );
        // A window over a whole shared partition is that partition...
        let again = capture(rdd, &mut records);
        assert!(Arc::ptr_eq(&again.part, &part));
        // ...and only a partial window is copied.
        let mut window = TaskRecords::Shared(Arc::clone(&part), 50, 80);
        let copy = capture(rdd, &mut window);
        assert_eq!(copy.part.as_slice(), &part[50..80]);
        assert_eq!(copy.bytes, batch_size(&part[50..80]));
        assert_eq!(window.as_slice(), &part[50..80]);
    }
}
