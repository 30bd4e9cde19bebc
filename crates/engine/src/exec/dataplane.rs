//! The per-task data plane: what one task reads, the fused narrow chain
//! it streams the records through, and the shuffle write it ends in.
//! Everything here is a function of the lineage graph and a
//! [`StageInput`]; nothing here knows a cluster, a clock or a ledger.
//!
//! A stage that reads a shuffle runs its tasks in *blocks* of adjacent
//! reduce partitions, one pool item a block ([`map_tasks`]). A block walks
//! the producer's map rows in map-task order, finds its partitions' runs
//! in each row's partition-sorted [`RunSpan`]s by binary search, locks the
//! row once if it holds any, and hands each run to its partition's merge —
//! so every partition's merge receives its runs in map-task order,
//! whatever the block size — booking what each partition fetched from
//! which node ([`Fetched`]) on the way. A cached join side is booked the
//! same way, next to it: one chunk and its bytes from the partition's
//! home, or local-disk bytes once the cached RDD is spilled. Then the
//! block finishes each partition's merge and runs the partition's task
//! over it. A stage of `n` tasks on `l` pool lanes cuts its tasks into
//! blocks of `ceil(n² / 2^14)` partitions, at least one and at most
//! `ceil(n / 4l)` ([`block_size`]). On the shuffle's last read the records
//! move out of the rows, and the last block to pass a row frees it.

use super::stage::ShuffleData;
use crate::ops::{reserve_records, Emit, FilterFn, FlatMapFn, GenFn, MapFn, OpKind, ReduceFn};
use crate::partitioner::{Partitioner, PartitionerKind, PartitionerSpec};
use crate::pool::{lock, WorkerPool};
use crate::rdd::{Rdd, RddGraph};
use crate::record::{batch_size, IntoRecord, Key, Record};
use crate::shuffle::{
    lay_out, ConcatMerge, GroupMerge, JoinMerge, ReduceMerge, Run, RunSpan, TaskArena, TaskRuns,
};
use numeric::Reservoir;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Compute units charged per record for partition assignment during shuffle
/// writes.
const PARTITION_COST: f64 = 0.05e-6;
/// Compute units charged per record for range-partitioner sampling.
const SAMPLE_COST: f64 = 0.02e-6;
/// Compute units charged per fetched record during reduce-side merges.
const MERGE_BASE_COST: f64 = 0.03e-6;
/// A shuffle-reading stage's blocks visit the map rows about this many
/// times, whatever its partition count (see [`block_size`]).
const ROW_VISITS: usize = 1 << 14;
/// Source nodes a task's fetch list has room for at its first entry.
const FETCH_ROOM: usize = 64;

pub(super) enum MergeKind {
    Reduce(ReduceFn, f64),
    Group(f64),
    Concat,
}

/// One read of a shuffle by a stage: the last one moves the records out
/// of the rows and frees them, an earlier one clones them.
#[derive(Clone, Copy)]
pub(super) struct TableRead<'s> {
    pub(super) data: &'s ShuffleData,
    pub(super) last: bool,
}

impl TableRead<'_> {
    /// Walks the map rows in map-task order for reduce partitions `block`
    /// (one of `blocks`), handing each run to its partition's slot and
    /// booking it there. A row is locked once, and only if it holds a run
    /// of the block; on the last read, the last block to pass a row frees
    /// it.
    fn walk<T>(&self, block: &Range<usize>, blocks: usize, slots: &mut [Slot<T>], left: bool) {
        let data = self.data;
        let (lo, hi) = (block.start, block.end);
        let in_block = |s: &&RunSpan| (s.partition as usize) < hi;
        for (row, &node) in data.rows.iter().zip(&data.nodes) {
            let spans = &row.spans[row.spans.partition_point(|s| (s.partition as usize) < lo)..];
            if spans.first().is_some_and(|s| in_block(&s)) {
                let mut records = lock(&row.records);
                for s in spans.iter().take_while(in_block) {
                    let run = &mut records[s.start as usize..s.end as usize];
                    let slot = &mut slots[s.partition as usize - lo];
                    slot.records += run.len() as u64;
                    slot.bytes += s.bytes;
                    slot.fetched.chunks += 1;
                    slot.fetched.add(node, s.bytes, data.cluster_nodes);
                    let run = match self.last {
                        true => Run::Moved(run),
                        false => Run::Shared(run),
                    };
                    slot.merge.push(run, left);
                }
            }
            let passed = || row.visits.fetch_add(1, Ordering::AcqRel) + 1;
            if self.last && !row.spans.is_empty() && passed() == blocks {
                *lock(&row.records) = Vec::new();
            }
        }
    }
}

/// What a task fetched from map outputs and cached partitions: bytes per
/// node id, ascending and none of them empty, the chunks fetched, and the
/// bytes a spilled cached side read from local disk instead.
#[derive(Default)]
pub(super) struct Fetched {
    pub(super) from: Vec<(usize, u64)>,
    pub(super) chunks: usize,
    pub(super) local: u64,
}

impl Fetched {
    /// Books `bytes` from `node`: summed into the node's entry, or a new
    /// entry in node order. The first entry reserves room for `nodes`, the
    /// cluster's node count, up to [`FETCH_ROOM`]: a task's list allocates
    /// once on a cluster that small.
    pub(super) fn add(&mut self, node: usize, bytes: u64, nodes: usize) {
        if bytes == 0 {
            return;
        }
        match self.from.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(at) => self.from[at].1 += bytes,
            Err(at) => {
                if self.from.capacity() == 0 {
                    self.from.reserve_exact(nodes.clamp(1, FETCH_ROOM));
                }
                self.from.insert(at, (node, bytes));
            }
        }
    }
}

/// A cached RDD's partitions and their encoded sizes, as the tasks that
/// captured them measured them: partition `i` feeds task `i`. A join task
/// reading partition `i` fetches it from `homes[i]`, or reads it from
/// local disk once the RDD is `spilled`.
#[derive(Clone, Copy)]
pub(super) struct CachedParts<'s> {
    pub(super) parts: &'s [Arc<Vec<Record>>],
    pub(super) sizes: &'s [u64],
    pub(super) homes: &'s [usize],
    pub(super) spilled: bool,
    /// The cluster's node count: what a fetch list reserves room for.
    pub(super) nodes: usize,
}

/// Where one join side's data comes from.
pub(super) enum JoinSide<'s> {
    /// A shuffle, consumed run by run in map order.
    Shuffle(TableRead<'s>),
    /// A cached co-partitioned RDD.
    Narrow(CachedParts<'s>),
}

impl JoinSide<'_> {
    /// Feeds partitions `block` (one of `blocks`) of this side to their
    /// slots, booking each on the way: a cached partition is one chunk if
    /// it holds records, and its bytes come from its home's memory, or
    /// from local disk once spilled.
    fn read<T>(&self, block: &Range<usize>, blocks: usize, slots: &mut [Slot<T>], left: bool) {
        match self {
            JoinSide::Shuffle(read) => read.walk(block, blocks, slots, left),
            JoinSide::Narrow(cached) => {
                for (slot, col) in slots.iter_mut().zip(block.clone()) {
                    let (part, bytes) = (&cached.parts[col], cached.sizes[col]);
                    slot.records += part.len() as u64;
                    slot.bytes += bytes;
                    slot.fetched.chunks += usize::from(!part.is_empty());
                    match cached.spilled {
                        true => slot.fetched.local += bytes,
                        false => slot.fetched.add(cached.homes[col], bytes, cached.nodes),
                    }
                    slot.merge.push(Run::Shared(part), left);
                }
            }
        }
    }
}

/// The data-plane view of a stage's inputs.
pub(super) enum StageInput<'s> {
    /// Each task reads its own split or partition.
    Split(SplitInput<'s>),
    /// Tasks read reduce partitions of shuffles, in blocks.
    Wide(WideInput<'s>),
}

/// What task `i` of `n` reads, task by task.
pub(super) enum SplitInput<'s> {
    /// Slice `i` of an in-memory collection.
    Slice(&'s Arc<Vec<Record>>),
    /// Split `i` of a deterministic generator.
    Gen {
        gen: &'s GenFn,
        cost_per_record: f64,
    },
    /// Partition `i` of a cached RDD.
    Cached(CachedParts<'s>),
}

/// What a block of reduce partitions reads.
pub(super) enum WideInput<'s> {
    /// One shuffle, merged as the wide op prescribes.
    Shuffle {
        read: TableRead<'s>,
        merge: MergeKind,
    },
    /// Both sides of a join or co-group.
    Join {
        left: JoinSide<'s>,
        right: JoinSide<'s>,
        /// A co-group, which keeps a key only one side has; else a join.
        outer: bool,
        cost: f64,
    },
}

/// One reduce partition's merge, as the stage's wide op prescribes, with
/// its compute charge per record.
enum Merge {
    Reduce(ReduceMerge, f64),
    Group(GroupMerge, f64),
    Concat(ConcatMerge),
    Join(JoinMerge, f64),
}

impl Merge {
    fn push(&mut self, run: Run<'_>, left: bool) {
        match self {
            Merge::Reduce(m, _) => m.push_run(run),
            Merge::Group(m, _) => m.push_run(run),
            Merge::Concat(m) => m.push_run(run),
            Merge::Join(m, _) => m.push_run(run, left),
        }
    }

    /// The merged records and their merge compute, `fetched` records in.
    fn finish(self, fetched: u64) -> (Vec<Record>, f64) {
        let n = fetched as f64;
        let mut cost = 0.0;
        let records = match self {
            Merge::Reduce(m, c) => {
                cost += n * MERGE_BASE_COST;
                let (out, ops) = m.finish();
                cost += ops as f64 * c;
                out
            }
            Merge::Group(m, c) => {
                cost += n * MERGE_BASE_COST;
                cost += n * c;
                m.finish()
            }
            Merge::Concat(m) => {
                cost += n * MERGE_BASE_COST;
                m.finish()
            }
            Merge::Join(m, c) => {
                cost += n * (MERGE_BASE_COST + c);
                let (out, probes) = m.finish();
                cost += probes as f64 * MERGE_BASE_COST;
                out
            }
        };
        (records, cost)
    }
}

impl Default for Merge {
    fn default() -> Self {
        Merge::Concat(ConcatMerge::new())
    }
}

/// One reduce partition of a block: its merge and books while the block
/// walks the rows, then its task's output.
struct Slot<T> {
    merge: Merge,
    records: u64,
    bytes: u64,
    fetched: Fetched,
    out: Option<T>,
}

impl<T> Slot<T> {
    /// The partition's merged root; the slot keeps its books.
    fn root(&mut self) -> RootRead<'static> {
        let (records, cost) = std::mem::take(&mut self.merge).finish(self.records);
        RootRead {
            root: Root::Records(TaskRecords::Owned(records)),
            input_records: self.records,
            input_bytes: self.bytes,
            cost,
        }
    }
}

impl WideInput<'_> {
    /// Reads partitions `block`, one of `blocks`: every side walked in
    /// map-task order, a join's left side whole and sealed before its
    /// right.
    fn read_block<T>(&self, block: &Range<usize>, blocks: usize) -> Vec<Slot<T>> {
        let merge = || match self {
            WideInput::Shuffle { merge, .. } => match merge {
                MergeKind::Reduce(f, c) => Merge::Reduce(ReduceMerge::new(Arc::clone(f)), *c),
                MergeKind::Group(c) => Merge::Group(GroupMerge::new(), *c),
                MergeKind::Concat => Merge::Concat(ConcatMerge::new()),
            },
            WideInput::Join { outer, cost, .. } => Merge::Join(JoinMerge::two_sided(*outer), *cost),
        };
        let slot = |_| Slot {
            merge: merge(),
            records: 0,
            bytes: 0,
            fetched: Fetched::default(),
            out: None,
        };
        let mut slots: Vec<Slot<T>> = block.clone().map(slot).collect();
        match self {
            WideInput::Shuffle { read, .. } => read.walk(block, blocks, &mut slots, true),
            WideInput::Join { left, right, .. } => {
                left.read(block, blocks, &mut slots, true);
                for s in &mut slots {
                    if let Merge::Join(m, _) = &mut s.merge {
                        m.seal_left();
                    }
                }
                right.read(block, blocks, &mut slots, false);
            }
        }
        slots
    }
}

/// The reduce partitions in a block of a shuffle-reading stage of `of`
/// tasks on `lanes` pool lanes: `of² / ROW_VISITS`, at least one, and no
/// more than a quarter of a lane's share, so the lanes still balance their
/// load. Every block visits every map row and the map tasks number about
/// as many as the reduce tasks, so a stage's blocks visit about
/// `ROW_VISITS` rows whatever P, while each row's run for a partition
/// thins as 1/P: one partition a block at P ≤ 128, where runs are long and
/// a partition's merge wants the cache to itself, and about 90 at P = 1200,
/// where a run is a record or two and walking the rows once per block is
/// what a task's read costs.
fn block_size(of: usize, lanes: usize) -> usize {
    let share = of.div_ceil(4 * lanes.max(1));
    (of * of).div_ceil(ROW_VISITS).min(share).max(1)
}

/// Runs `f` over every task of a stage of `of` tasks on the pool — at most
/// `cap` lanes — in task order: over its own split one pool item a task,
/// over shuffled input one pool item a block of partitions (see the module
/// doc). `f` gets the task, its root and the pool participant running it.
/// Returns the outputs and, for shuffled input, what each task fetched.
pub(super) fn map_tasks<'s, T: Send>(
    pool: &WorkerPool,
    cap: usize,
    input: &StageInput<'s>,
    of: usize,
    f: impl Fn(TaskId, RootRead<'s>, usize) -> T + Sync,
) -> (Vec<T>, Vec<Fetched>) {
    let task = |index| TaskId { index, of };
    let wide = match input {
        StageInput::Split(split) => {
            let outs = pool.map_capped(of, cap, |i, p| f(task(i), split.read(task(i)), p));
            return (outs, Vec::new());
        }
        StageInput::Wide(wide) => wide,
    };
    let size = block_size(of, pool.workers().min(cap));
    let blocks = of.div_ceil(size);
    let done = pool.map_capped(blocks, cap, |b, p| {
        let block = b * size..(b * size + size).min(of);
        let mut slots = wide.read_block(&block, blocks);
        for (i, slot) in block.zip(&mut slots) {
            slot.out = Some(f(task(i), slot.root(), p));
        }
        slots
    });
    let (mut outs, mut books) = (Vec::with_capacity(of), Vec::with_capacity(of));
    for slot in done.into_iter().flatten() {
        if let Some(out) = slot.out {
            outs.push(out);
            books.push(slot.fetched);
        }
    }
    debug_assert_eq!(outs.len(), of, "every task ran once");
    (outs, books)
}

/// How a stage's tasks write their output to the shuffle they feed.
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

/// A shuffle-writing task's output once its sink is closed, not yet laid
/// out.
#[derive(Default)]
pub(super) struct Folded {
    /// The map-side fold's survivors, or every record without a combine.
    pub(super) survivors: Vec<Record>,
    /// Records the task produced, before the fold.
    pub(super) produced: u64,
    /// Combine applications.
    pub(super) folds: u64,
    /// Keys reservoir-sampled from the records produced (range writes
    /// only).
    pub(super) sample: Vec<Key>,
}

impl ShuffleWriter {
    pub(super) fn is_range(&self) -> bool {
        self.spec.kind == PartitionerKind::Range
    }

    /// Runs task `task` — `compute` streams its output into the sink it is
    /// handed — and closes the task's sink.
    pub(super) fn fold(
        &self,
        task: TaskId,
        arena: &mut TaskArena,
        compute: impl FnOnce(TaskId, Sink<'_>) -> TaskOut,
    ) -> (TaskOut, Folded) {
        let mut sink = self.sink(task, arena);
        let out = compute(task, Sink::Write(&mut sink));
        (out, sink.finish(arena))
    }

    /// The sink task `task` streams its output into: a fold over `arena`'s
    /// key index when the consumer is a `reduce_by_key`, and under a range
    /// scheme a reservoir seeded for the task, sized so that the stage's
    /// samples hold about 20 keys per partition.
    fn sink(&self, task: TaskId, arena: &mut TaskArena) -> WriteSink {
        let sample = self.is_range().then(|| {
            let cap = (20 * self.spec.partitions).div_ceil(task.of).max(8);
            let seed = self.seed ^ ((task.index as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            Reservoir::new(cap, seed)
        });
        let fold = self
            .combine
            .as_ref()
            .map(|f| ReduceMerge::in_arena(Arc::clone(f), arena));
        WriteSink {
            counted: CountSink::default(),
            sample,
            fold,
            kept: Vec::new(),
        }
    }

    /// Lays a task's survivors out by reduce partition and charges the
    /// write: partitioning (and range sampling) per record the task
    /// produced, plus the combine applications.
    pub(super) fn write(
        &self,
        folded: Folded,
        partitioner: &dyn Partitioner,
        arena: &mut TaskArena,
    ) -> MapWrite {
        let n = folded.produced as f64;
        let mut cost = n * PARTITION_COST + folded.folds as f64 * self.combine_cost;
        if self.is_range() {
            cost += n * SAMPLE_COST;
        }
        let runs = lay_out(folded.survivors, partitioner, arena);
        MapWrite { runs, cost }
    }
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
/// collection is cloned). `measured` is the records' encoded size when
/// the pass that produced them already took it; otherwise it is taken
/// here.
fn capture(rdd: Rdd, records: &mut TaskRecords, measured: Option<u64>) -> Capture {
    let part = match std::mem::take(records) {
        TaskRecords::Owned(v) => Arc::new(v),
        TaskRecords::Shared(data, start, end) if start == 0 && end == data.len() => data,
        TaskRecords::Shared(data, start, end) => Arc::new(data[start..end].to_vec()),
    };
    *records = TaskRecords::Shared(Arc::clone(&part), 0, part.len());
    let bytes = match measured {
        Some(bytes) => {
            debug_assert_eq!(bytes, batch_size(&part), "{rdd:?} measured as generated");
            bytes
        }
        None => batch_size(&part),
    };
    Capture { rdd, part, bytes }
}

pub(super) struct TaskOut {
    /// The task's output when its sink collects; empty otherwise.
    pub(super) records: TaskRecords,
    /// Count and encoded size of the records the task produced.
    pub(super) out_records: u64,
    pub(super) out_bytes: u64,
    pub(super) cost: f64,
    pub(super) input_records: u64,
    pub(super) input_bytes: u64,
    pub(super) captures: Vec<Capture>,
}

/// One narrow op compiled for a fused streaming pass.
enum FusedOp<'g> {
    /// A map and the slot it writes each output over.
    Map(&'g MapFn, Record),
    /// A flat-map and the slot it writes each output over.
    FlatMap(&'g FlatMapFn, Record),
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
    /// Whether the sink keeps the records it is handed ([`hand_on`]).
    fn keeps(&self) -> bool;
    /// About `additional` more records follow (see [`Emit::reserve`]).
    fn reserve(&mut self, _additional: usize) {}
    /// Every record of `records`, in order, when no op stands between.
    fn push_all(&mut self, records: Vec<Record>) {
        for rec in records {
            self.push(rec);
        }
    }
}

/// Collects the pass's output; a borrowed record is cloned here.
impl RecordSink for Vec<Record> {
    fn push<R: IntoRecord>(&mut self, rec: R) {
        Vec::push(self, rec.into_record());
    }
    fn keeps(&self) -> bool {
        true
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
    fn keeps(&self) -> bool {
        false
    }
}

/// A shuffle-writing task's sink: counts every record like a
/// [`CountSink`], offers its key to the task's range sample, and folds it
/// into the map-side combine on the spot — or, with no combine, keeps it.
pub(super) struct WriteSink {
    counted: CountSink,
    sample: Option<Reservoir<Key>>,
    fold: Option<ReduceMerge>,
    kept: Vec<Record>,
}

impl WriteSink {
    #[inline]
    fn see(&mut self, rec: &Record) {
        self.counted.push(rec);
        if let Some(sample) = &mut self.sample {
            sample.offer(rec.key.clone());
        }
    }

    /// Closes the sink; the fold's key index goes back to `arena`.
    fn finish(self, arena: &mut TaskArena) -> Folded {
        let (survivors, folds) = match self.fold {
            Some(m) => m.finish_in(arena),
            None => (self.kept, 0),
        };
        Folded {
            survivors,
            produced: self.counted.records,
            folds,
            sample: self.sample.map_or_else(Vec::new, Reservoir::into_items),
        }
    }
}

impl RecordSink for WriteSink {
    #[inline]
    fn push<R: IntoRecord>(&mut self, rec: R) {
        self.see(rec.borrow());
        match &mut self.fold {
            Some(m) => m.push(rec),
            None => self.kept.push(rec.into_record()),
        }
    }

    /// A combine folds a record by reference into a key it holds and
    /// clones only the first of each key.
    fn keeps(&self) -> bool {
        self.fold.is_none()
    }

    fn reserve(&mut self, additional: usize) {
        if self.fold.is_none() {
            reserve_records(&mut self.kept, additional);
        }
    }

    /// Keeps an owned vector as it is when there is nothing to fold.
    fn push_all(&mut self, mut records: Vec<Record>) {
        if self.fold.is_some() {
            records.into_iter().for_each(|rec| self.push(rec));
            return;
        }
        records.iter().for_each(|rec| self.see(rec));
        if self.kept.is_empty() {
            self.kept = records;
        } else {
            self.kept.append(&mut records);
        }
    }
}

/// What a task's output ends in.
pub(super) enum Sink<'a> {
    /// Kept: the task returns it in [`TaskOut::records`].
    Collect,
    /// Counted and sized, none of it kept.
    Count(CountSink),
    /// Written to a shuffle.
    Write(&'a mut WriteSink),
}

/// The [`Emit`] a generator or a flat-map closure is handed: what it
/// writes into `slot` continues through the remaining fused ops into the
/// task's sink. A size hint reaches the sink only when no op stands
/// between.
struct Downstream<'a, 'g, S> {
    rest: &'a mut [OpState<'g>],
    slot: &'a mut Record,
    out: &'a mut S,
}

impl<S: RecordSink> Emit for Downstream<'_, '_, S> {
    #[inline]
    fn put(&mut self, write: &mut dyn FnMut(&mut Record)) {
        write(self.slot);
        hand_on(self.rest, self.slot, self.out);
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
    input: CountSink,
}

impl<S: RecordSink> Emit for Generated<'_, '_, S> {
    #[inline]
    fn put(&mut self, write: &mut dyn FnMut(&mut Record)) {
        let down = &mut self.down;
        write(down.slot);
        self.input.push(&*down.slot);
        hand_on(down.rest, down.slot, down.out);
    }
    fn reserve(&mut self, additional: usize) {
        self.down.reserve(additional);
    }
}

/// The one hand-off of a producer's output — a map's, a flat-map's or a
/// generator's, written into the slot its pass keeps — to the rest of the
/// pass: taken, leaving [`Record::default`], into a sink that keeps it;
/// else lent, so the next output is written over this one's buffers.
#[inline(always)]
fn hand_on<S: RecordSink>(rest: &mut [OpState<'_>], slot: &mut Record, out: &mut S) {
    if out.keeps() {
        feed(rest, std::mem::take(slot), out);
    } else {
        feed(rest, &*slot, out);
    }
}

/// Streams one record, owned or borrowed, through the remaining fused
/// ops. A borrowed record is cloned only if the sink keeps it; what a map
/// or a flat-map writes into its slot continues as [`hand_on`] hands it.
///
/// Records arrive at each op in the same order as the op-at-a-time loop
/// (every narrow op is order-preserving), so per-op `Sample` RNG draws are
/// bit-identical to the unfused execution.
///
/// Inlined into each step, so the last op hands its record to the sink
/// without a call: a lent slot would otherwise recurse into the very
/// instance it is in, which the compiler cannot inline.
#[inline(always)]
fn feed<R: IntoRecord, S: RecordSink>(ops: &mut [OpState<'_>], rec: R, out: &mut S) {
    match ops.split_first_mut() {
        None => out.push(rec),
        Some((head, rest)) => step(head, rest, rec, out),
    }
}

/// `head`'s part of [`feed`]: counts the record in and applies the op.
fn step<R: IntoRecord, S: RecordSink>(
    head: &mut OpState<'_>,
    rest: &mut [OpState<'_>],
    rec: R,
    out: &mut S,
) {
    head.inputs += 1;
    match &mut head.op {
        FusedOp::Map(f, slot) => {
            f(rec.borrow(), slot);
            hand_on(rest, slot, out);
        }
        FusedOp::FlatMap(f, slot) => f(rec.borrow(), &mut Downstream { rest, slot, out }),
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
/// produces it; a shuffled partition arrives merged, its merge charged.
pub(super) struct RootRead<'s> {
    root: Root<'s>,
    input_records: u64,
    input_bytes: u64,
    /// Generation or merge compute charged so far.
    cost: f64,
}

impl RootRead<'_> {
    /// One fused pass: every record of the root — moved if the task owns
    /// them, lent if they window a shared partition, generated on the spot
    /// if they are a source split — through `ops` into `out`. Leaves the
    /// root empty.
    fn pass<S: RecordSink>(&mut self, task: TaskId, ops: &mut [OpState<'_>], out: &mut S) {
        match std::mem::take(&mut self.root) {
            Root::Records(TaskRecords::Owned(v)) if ops.is_empty() => out.push_all(v),
            Root::Records(TaskRecords::Owned(v)) => {
                for rec in v {
                    feed(ops, rec, out);
                }
            }
            Root::Records(TaskRecords::Shared(data, start, end)) => {
                if ops.is_empty() {
                    out.reserve(end - start);
                }
                for rec in &data[start..end] {
                    feed(ops, rec, out);
                }
            }
            Root::Gen {
                gen,
                cost_per_record,
            } => {
                let (rest, slot) = (ops, &mut Record::default());
                let (down, input) = (Downstream { rest, slot, out }, CountSink::default());
                let mut split = Generated { down, input };
                gen(task.index, task.of, &mut split);
                let CountSink { records, bytes } = split.input;
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

impl<'s> SplitInput<'s> {
    /// Task `task`'s root: a slice or cached partition borrowed, not
    /// copied; a source split not generated yet.
    pub(super) fn read(&self, task: TaskId) -> RootRead<'s> {
        let i = task.index;
        let (root, input_records, input_bytes) = match self {
            SplitInput::Slice(data) => {
                let (start, end) = (i * data.len() / task.of, (i + 1) * data.len() / task.of);
                let slice = &data[start..end];
                let shared = TaskRecords::Shared(Arc::clone(data), start, end);
                (Root::Records(shared), slice.len() as u64, batch_size(slice))
            }
            // Counted, sized and charged by the pass that generates it.
            &SplitInput::Gen {
                gen,
                cost_per_record,
            } => {
                let split = Root::Gen {
                    gen,
                    cost_per_record,
                };
                (split, 0, 0)
            }
            SplitInput::Cached(cached) => {
                let data = &cached.parts[i];
                let shared = TaskRecords::Shared(Arc::clone(data), 0, data.len());
                (Root::Records(shared), data.len() as u64, cached.sizes[i])
            }
        };
        RootRead {
            root,
            input_records,
            input_bytes,
            cost: 0.0,
        }
    }
}

/// Runs one task over its root: narrow chain, cache captures.
/// `capture_root` names the root RDD when its output must be cached.
/// Unless `sink` collects, the task's output goes into it record by record
/// and [`TaskOut::records`] stays empty.
pub(super) fn compute_task(
    graph: &RddGraph,
    mut root: RootRead<'_>,
    chain: &[Rdd],
    task: TaskId,
    capture_root: Option<Rdd>,
    mut sink: Sink<'_>,
) -> TaskOut {
    let mut captures = Vec::new();
    if let Some(root_rdd) = capture_root {
        // A split generated here is sized by the pass that generates it.
        let generated = matches!(root.root, Root::Gen { .. });
        root.records(task);
        let measured = generated.then_some(root.input_bytes);
        captures.push(capture(root_rdd, root.records(task), measured));
    }
    let records = run_chain(graph, chain, task, &mut root, &mut captures, &mut sink);
    let (out_records, out_bytes) = match &sink {
        Sink::Collect => (
            records.as_slice().len() as u64,
            batch_size(records.as_slice()),
        ),
        Sink::Count(counted) | Sink::Write(WriteSink { counted, .. }) => {
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
    sink: &mut Sink<'_>,
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
                    OpKind::Map { f } | OpKind::MapValues { f } => {
                        FusedOp::Map(f, Record::default())
                    }
                    OpKind::FlatMap { f } => FusedOp::FlatMap(f, Record::default()),
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
            (Sink::Write(write), None) => root.pass(task, &mut ops, &mut **write),
            (Sink::Collect, _) | (_, Some(_)) => {
                let mut out = Vec::new();
                root.pass(task, &mut ops, &mut out);
                root.root = Root::Records(TaskRecords::Owned(out));
                if let Some(&rdd) = cached {
                    captures.push(capture(rdd, root.records(task), None));
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
            'm' => FusedOp::Map(map, Record::default()),
            'x' => FusedOp::FlatMap(flat, Record::default()),
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
        let map: MapFn = Arc::new(|r: &Record, out: &mut Record| {
            *out = Record::new(r.key.clone(), Value::Int(r.value.as_int() * 3))
        });
        // Odd fan-outs write into the slot, even ones give each away.
        let flat: FlatMapFn = Arc::new(|r: &Record, out: &mut dyn Emit| {
            let fan_out = r.value.as_int() % 4;
            for j in 0..fan_out {
                if fan_out % 2 == 1 {
                    out.put(&mut |slot| (slot.key, slot.value) = (Key::Int(j), r.value.clone()));
                } else {
                    out.emit(Record::new(Key::Int(j), r.value.clone()));
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
    /// shuffle with a map-side combine: streamed into the task's write
    /// sink, or — the reference — collected first, folded by a fresh
    /// `ReduceMerge` and laid out.
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
        let arena = &mut TaskArena::default();
        let task = TaskId { index, of: 3 };
        let input = SplitInput::Slice(data);
        if streamed {
            let (out, folded) = writer.fold(task, arena, |task, sink| {
                compute_task(graph, input.read(task), chain, task, None, sink)
            });
            assert!(
                out.records.as_slice().is_empty(),
                "a streamed task holds nothing"
            );
            (out, writer.write(folded, &*partitioner, arena))
        } else {
            let out = compute_task(graph, input.read(task), chain, task, None, Sink::Collect);
            let mut m = ReduceMerge::new(sum());
            m.push_slice(out.records.as_slice());
            let (survivors, folds) = m.finish();
            let folded = Folded {
                survivors,
                produced: out.out_records,
                folds,
                sample: Vec::new(),
            };
            (out, writer.write(folded, &*partitioner, arena))
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
                SplitInput::Slice(&data).read(task),
                &chain,
                task,
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

    /// A cached source split is generated once, sized by the generating
    /// pass, and captured at that size (debug builds recheck it there).
    #[test]
    fn a_generated_root_is_captured_at_the_size_its_pass_measured() {
        let graph = RddGraph::new();
        let gen: GenFn = Arc::new(|index, of, out: &mut dyn Emit| {
            for i in (index..100).step_by(of) {
                out.emit(Record::new(Key::Int(i as i64), Value::Int(i as i64 * 3)));
            }
        });
        let input = SplitInput::Gen {
            gen: &gen,
            cost_per_record: 1e-6,
        };
        let task = TaskId { index: 1, of: 4 };
        let root = input.read(task);
        let out = compute_task(&graph, root, &[], task, Some(Rdd(0)), Sink::Collect);
        let [Capture { part, bytes, .. }] = out.captures.as_slice() else {
            panic!("one capture")
        };
        assert_eq!((part.len(), out.input_records), (25, 25));
        assert_eq!(*bytes, out.input_bytes);
        assert_eq!(*bytes, batch_size(part));
    }

    #[test]
    fn a_capture_moves_an_owned_output_and_shares_a_whole_partition() {
        let owned: Vec<Record> = word_records();
        let at = owned.as_ptr();
        let mut records = TaskRecords::Owned(owned);
        let rdd = Rdd(7);
        let Capture { part, bytes, .. } = capture(rdd, &mut records, None);
        assert_eq!(part.as_ptr(), at, "the vector moved into its Arc");
        assert_eq!(bytes, batch_size(&part), "sized as captured");
        assert!(
            matches!(&records, TaskRecords::Shared(data, 0, 200) if Arc::ptr_eq(data, &part)),
            "the task reads on from the captured partition"
        );
        // A window over a whole shared partition is that partition...
        let again = capture(rdd, &mut records, None);
        assert!(Arc::ptr_eq(&again.part, &part));
        // ...and only a partial window is copied.
        let mut window = TaskRecords::Shared(Arc::clone(&part), 50, 80);
        let copy = capture(rdd, &mut window, None);
        assert_eq!(copy.part.as_slice(), &part[50..80]);
        assert_eq!(copy.bytes, batch_size(&part[50..80]));
        assert_eq!(window.as_slice(), &part[50..80]);
    }
}
