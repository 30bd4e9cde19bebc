//! Shuffle mechanics: the map-side write (an optional fold, then one
//! lay-out) and reduce-side merges.
//!
//! The volume a shuffle moves is *measured from real data*, not modeled:
//! every map task partitions its actual output records with the consumer's
//! partitioner and, for reduce-by-key, combines duplicates map-side first.
//! This is why the paper's Fig. 4 shape — shuffle bytes growing with the
//! partition count — emerges organically here: with more map partitions,
//! each partition sees fewer duplicate keys, the combiner collapses less,
//! and more records survive to be shuffled.
//!
//! A map task's output is its records in reduce-partition order plus the
//! list of its *non-empty* runs —
//! partition, record range, encoded bytes — in ascending partition order
//! ([`TaskRuns`], [`RunSpan`]). What a task keeps grows with its records,
//! not with P: at P much larger than the records per task an empty
//! partition costs one counter in the task's scratch space and nothing
//! that outlives the task. [`TaskBuckets`] is the same output cut into one
//! record vector per partition, for callers that want the pieces. Every
//! write is one sequence: the map-side combine is a [`ReduceMerge`] — the
//! same fold the reduce side runs — that the executor pushes a task's
//! records into as the narrow chain produces them, and [`lay_out`]
//! partitions each survivor once and orders the survivors by partition. A
//! combine-free write lays out all of the task's records.
//!
//! Reduce-side merges are *incremental*: each merge is an accumulator
//! ([`ReduceMerge`], [`GroupMerge`], [`ConcatMerge`], [`JoinMerge`]) that
//! consumes one map task's [`Run`] at a time, so a
//! reduce task never materializes its whole input. Each accumulator has
//! one private step, generic over a record by value or by reference
//! (`record::IntoRecord`): owned records are *moved* in, borrowed ones
//! cloned only in the part that is kept. `push_run` only picks the
//! iterator.
//! Grouping, joining and co-grouping are one two-sided table
//! ([`JoinMerge`]) with one seal protocol — Spark's own shape, where
//! `groupByKey` and `join` are `cogroup` underneath: the inner join drops
//! an unmatched right record at the probe, the co-group keeps it, a
//! group-by is the table with a left side only.
//!
//! All merges preserve first-seen key order, keeping the engine
//! deterministic end-to-end (no `HashMap` iteration order leaks into
//! results, byte counts, or range-partitioner samples). How equal keys
//! are found is written once (`KeyIndex`): each key's probe hash — one
//! multiply for an integer key, [`Key::stable_hash`] for any other —
//! through a pass-through hasher, leads to the first slot seen with that
//! hash, and slots that share a hash are chained and disambiguated by a
//! real key comparison — equality semantics identical to hashing the key
//! itself, and no allocation per distinct key. An integer key in `0..64`
//! skips the table: a fixed array holds its slot. Which slot a key gets
//! depends on the order keys arrive in, never on the hash. The
//! index holds slot numbers only; the keys stay in the accumulator that
//! owns them, so the combine and the reduce hand their records over as
//! they hold them.

use crate::batch::ColumnBatch;
use crate::ops::ReduceFn;
use crate::partitioner::Partitioner;
use crate::record::{IntoRecord, Key, Record, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Map-side output of one task: one bucket per reduce partition.
#[derive(Debug, Clone)]
pub struct TaskBuckets {
    /// Records per reduce partition.
    pub buckets: Vec<Arc<Vec<Record>>>,
    /// Serialized size per reduce partition.
    pub bytes: Vec<u64>,
}

impl TaskBuckets {
    /// Total bytes this task wrote.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// One non-empty run of a map task's output: reduce partition
/// `partition`'s records at `start..end` of the task's records, `bytes`
/// of them encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpan {
    /// Reduce partition.
    pub partition: u32,
    /// First record of the run.
    pub start: u32,
    /// One past the run's last record.
    pub end: u32,
    /// Serialized size of the run.
    pub bytes: u64,
}

/// Map-side output of one task as the executor stores it: every record of
/// the task in one allocation, ordered by reduce partition, first-seen
/// order inside a partition, and one [`RunSpan`] per partition the task
/// has records for. However many reduce partitions there are, nothing is
/// allocated or listed for an empty one. [`TaskRuns::into_buckets`] cuts
/// it into the bucket-per-partition form.
#[derive(Debug, Clone)]
pub struct TaskRuns {
    /// The records, in the order [`TaskRuns::spans`] cuts them.
    pub(crate) records: Vec<Record>,
    /// The non-empty runs, in ascending partition order.
    pub(crate) spans: Vec<RunSpan>,
    /// The partitioner's P.
    partitions: usize,
}

impl TaskRuns {
    /// The task's non-empty runs, in ascending partition order.
    pub fn spans(&self) -> &[RunSpan] {
        &self.spans
    }

    /// Total bytes this task wrote.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.spans.iter().map(|s| s.bytes).sum()
    }

    /// One record vector per reduce partition, empty ones included: each
    /// run is moved into its own vector.
    pub fn into_buckets(self) -> TaskBuckets {
        let mut bytes = vec![0; self.partitions];
        let mut spans = self.spans.iter().peekable();
        let mut records = self.records.into_iter();
        let buckets = (0..self.partitions)
            .map(|b| {
                let n = match spans.next_if(|s| s.partition as usize == b) {
                    Some(s) => {
                        bytes[b] = s.bytes;
                        (s.end - s.start) as usize
                    }
                    None => 0,
                };
                Arc::new(records.by_ref().take(n).collect())
            })
            .collect();
        TaskBuckets { buckets, bytes }
    }
}

/// One map task's records for one reduce partition, as the shuffle table
/// hands them to a merge accumulator.
pub enum Run<'a> {
    /// The consumer is the only reader: records are moved out, leaving
    /// [`Record::default`] placeholders behind.
    Moved(&'a mut [Record]),
    /// Other readers remain: records are cloned.
    Shared(&'a [Record]),
}

/// Pass-through hasher for keys that are already good hashes
/// ([`KeyIndex::hash`] output); avoids re-hashing `u64` map keys in the
/// combine path.
#[derive(Default, Clone)]
struct IdentityHasher(u64);

impl std::hash::Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher is only fed u64 keys");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type IdentityBuild = std::hash::BuildHasherDefault<IdentityHasher>;

/// End of a same-hash chain in [`KeyIndex::next`].
const CHAIN_END: u32 = u32::MAX;

/// Integer keys in `0..SMALL_INTS` find their slot by direct lookup.
const SMALL_INTS: usize = 64;

/// The first-seen key table every keyed accumulator shares: slot `i` is
/// the `i`-th distinct key pushed. The index stores no key — its owner
/// does, at the same position, and tells it through `holds` whether a slot
/// holds the key being looked up — so unequal keys that share a
/// [`KeyIndex::hash`] stay apart and nothing is allocated per key.
///
/// A small non-negative integer key — a cluster, a covariance row, a
/// pseudo-key spreading a sum — skips the hash table: its slot is one
/// array load away.
struct KeyIndex {
    /// Slot + 1 of `Key::Int(i)` for `i` in `0..SMALL_INTS`; 0 if not held.
    small: [u32; SMALL_INTS],
    /// [`KeyIndex::hash`] → first slot seen with that hash.
    heads: HashMap<u64, u32, IdentityBuild>,
    /// Next slot with the same hash, or [`CHAIN_END`]; one entry per slot.
    next: Vec<u32>,
}

impl Default for KeyIndex {
    fn default() -> Self {
        KeyIndex {
            small: [0; SMALL_INTS],
            heads: HashMap::default(),
            next: Vec::new(),
        }
    }
}

impl KeyIndex {
    /// The hash a key is filed under: one multiply (and a free rotation
    /// that brings the well-mixed high bits down to the table's index
    /// bits) for an integer key, [`Key::stable_hash`] for any other. Equal
    /// keys hash equal, which is all the index needs; where a key is
    /// *partitioned* is the partitioner's business, computed once per
    /// distinct key.
    #[inline]
    fn hash(key: &Key) -> u64 {
        match key {
            Key::Int(i) => (*i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(26),
            other => other.stable_hash(),
        }
    }

    /// `key`'s entry in [`KeyIndex::small`], if it has one.
    #[inline]
    fn small_int(key: &Key) -> Option<usize> {
        match *key {
            Key::Int(i) => usize::try_from(i).ok().filter(|&i| i < SMALL_INTS),
            _ => None,
        }
    }

    fn clear(&mut self) {
        self.small = [0; SMALL_INTS];
        self.heads.clear();
        self.next.clear();
    }

    /// The slot of `key`, if one is held.
    #[inline]
    fn find(&self, key: &Key, holds: impl Fn(usize) -> bool) -> Option<usize> {
        match Self::small_int(key) {
            Some(i) => (self.small[i] as usize).checked_sub(1),
            None => self.find_hashed(Self::hash(key), holds),
        }
    }

    /// The slot of `key`. A key not held yet gets the next slot — the
    /// number of keys held before the call — and the caller stores it
    /// there.
    #[inline]
    fn slot(&mut self, key: &Key, holds: impl Fn(usize) -> bool) -> usize {
        let Some(i) = Self::small_int(key) else {
            return self.slot_hashed(Self::hash(key), holds);
        };
        if self.small[i] == 0 {
            self.next.push(CHAIN_END);
            self.small[i] = self.next.len() as u32;
        }
        self.small[i] as usize - 1
    }

    /// The slot of the key with hash `h`, if one is held.
    #[inline]
    fn find_hashed(&self, h: u64, holds: impl Fn(usize) -> bool) -> Option<usize> {
        let mut at = *self.heads.get(&h)?;
        while !holds(at as usize) {
            at = self.next[at as usize];
            if at == CHAIN_END {
                return None;
            }
        }
        Some(at as usize)
    }

    /// [`KeyIndex::slot`] of the key with hash `h`.
    #[inline]
    fn slot_hashed(&mut self, h: u64, holds: impl Fn(usize) -> bool) -> usize {
        use std::collections::hash_map::Entry;
        let new = self.next.len() as u32;
        match self.heads.entry(h) {
            Entry::Vacant(head) => {
                head.insert(new);
            }
            Entry::Occupied(head) => {
                let mut at = *head.get() as usize;
                loop {
                    if holds(at) {
                        return at;
                    }
                    if self.next[at] == CHAIN_END {
                        self.next[at] = new;
                        break;
                    }
                    at = self.next[at] as usize;
                }
            }
        }
        self.next.push(CHAIN_END);
        new as usize
    }
}

/// Reusable scratch space for a task's shuffle write: the
/// partition-assignment vector, the per-partition counts and the key index
/// the map-side [`ReduceMerge`] borrows survive across calls, so a
/// long-lived worker stops paying per-task allocation churn. The record
/// payload itself is *not* pooled — it is owned downstream by the shuffle
/// consumer.
#[derive(Default)]
pub struct TaskArena {
    assignment: Vec<u32>,
    counts: Vec<usize>,
    /// Lent to the map-side [`ReduceMerge`] ([`ReduceMerge::in_arena`]).
    index: KeyIndex,
    /// Record indices in reduce-partition order.
    order: Vec<u32>,
}

/// Kept only for the frozen `benchmark/` until ROADMAP item 4a: a task's
/// shuffle write over an owned record vector — the map-side fold when
/// `combine` is given, then [`lay_out`] — cut into one bucket per
/// partition. Returns the buckets and the number of combine applications.
pub fn bucketize_owned_in(
    records: Vec<Record>,
    partitioner: &dyn Partitioner,
    combine: Option<&ReduceFn>,
    arena: &mut TaskArena,
) -> (TaskBuckets, u64) {
    let (survivors, ops) = match combine {
        Some(f) => {
            let mut m = ReduceMerge::in_arena(Arc::clone(f), arena);
            m.fold(records);
            m.finish_in(arena)
        }
        None => (records, 0),
    };
    (lay_out(survivors, partitioner, arena).into_buckets(), ops)
}

/// The last step of every shuffle write: partitions each of a task's
/// survivors — its records after the map-side fold, or all of them — once,
/// and moves them into reduce-partition order, listing the non-empty runs
/// on the way. Stable: a partition's records keep their relative order, so
/// a run keeps first-seen key order.
pub fn lay_out(
    mut survivors: Vec<Record>,
    partitioner: &dyn Partitioner,
    arena: &mut TaskArena,
) -> TaskRuns {
    let p = partitioner.num_partitions();
    let TaskArena {
        assignment,
        counts,
        order,
        ..
    } = arena;
    assignment.clear();
    assignment.reserve(survivors.len());
    counts.clear();
    counts.resize(p, 0);
    for r in &survivors {
        let b = partitioner.partition(&r.key);
        counts[b] += 1;
        assignment.push(b as u32);
    }
    // `counts` turns into each partition's write cursor.
    let mut acc = 0usize;
    for c in counts.iter_mut() {
        let n = std::mem::replace(c, acc);
        acc += n;
    }
    // Counting sort of the record indices, then one sequential write that
    // opens a run wherever the partition changes.
    assert!(
        u32::try_from(assignment.len()).is_ok(),
        "a map task holds fewer than 2^32 records"
    );
    order.clear();
    order.resize(assignment.len(), 0);
    for (i, &b) in assignment.iter().enumerate() {
        order[counts[b as usize]] = i as u32;
        counts[b as usize] += 1;
    }
    let mut ordered = Vec::with_capacity(order.len());
    let mut spans: Vec<RunSpan> = Vec::with_capacity(order.len().min(p));
    for &i in order.iter() {
        let (r, partition) = (
            std::mem::take(&mut survivors[i as usize]),
            assignment[i as usize],
        );
        let (at, bytes) = (ordered.len() as u32, r.encoded_size());
        match spans.last_mut() {
            Some(run) if run.partition == partition => {
                run.end += 1;
                run.bytes += bytes;
            }
            _ => spans.push(RunSpan {
                partition,
                start: at,
                end: at + 1,
                bytes,
            }),
        }
        ordered.push(r);
    }
    TaskRuns {
        records: ordered,
        spans,
        partitions: p,
    }
}

/// Kept only for the frozen `benchmark/` until ROADMAP item 4a: `None`
/// where [`ColumnBatch::from_records_typed`] rejects `records`, else a
/// copy of them [`lay_out`] without a combine.
pub fn bucketize_columnar(
    records: &[Record],
    partitioner: &dyn Partitioner,
    arena: &mut TaskArena,
) -> Option<(TaskBuckets, u64)> {
    ColumnBatch::from_records_typed(records)?;
    let runs = lay_out(records.to_vec(), partitioner, arena);
    Some((runs.into_buckets(), 0))
}

/// Map-side spill overflow: the bytes of a task's shuffle write that do
/// not fit in its execution-memory share. The overflow is written to
/// disk during the map pass and read back during the merge, so it
/// charges twice — once as a write, once as a local read.
pub fn spill_overflow(write_bytes: u64, task_mem_budget: u64) -> u64 {
    write_bytes.saturating_sub(task_mem_budget)
}

/// The fold of `reduce_by_key`, map side and reduce side alike: folds
/// every value of a key into the first record seen with it, with `f`,
/// preserving first-seen key order. Records can be pushed one at a time
/// or one run at a time, owned (moved) or borrowed (cloned on first sight
/// only). A task's map-side combine folds over its worker's key index
/// ([`ReduceMerge::in_arena`]); a reduce task's merge owns one.
pub struct ReduceMerge {
    f: ReduceFn,
    out: Vec<Record>,
    index: KeyIndex,
    ops: u64,
}

impl ReduceMerge {
    /// New accumulator folding with `f`.
    pub fn new(f: ReduceFn) -> Self {
        Self {
            f,
            out: Vec::new(),
            index: KeyIndex::default(),
            ops: 0,
        }
    }

    /// New accumulator folding with `f` over `arena`'s key index, which
    /// [`ReduceMerge::finish_in`] hands back.
    pub fn in_arena(f: ReduceFn, arena: &mut TaskArena) -> Self {
        let mut index = std::mem::take(&mut arena.index);
        index.clear();
        Self {
            index,
            ..Self::new(f)
        }
    }

    /// The merge step: a record whose key is already held folds into it
    /// by reference; the first record with a key is kept.
    #[inline]
    pub fn push<R: IntoRecord>(&mut self, item: R) {
        let Self { f, out, index, ops } = self;
        let r = item.borrow();
        let at = index.slot(&r.key, |i| out[i].key == r.key);
        if at < out.len() {
            f.fold(&mut out[at].value, &r.value);
            *ops += 1;
        } else {
            out.push(item.into_record());
        }
    }

    fn fold<R: IntoRecord>(&mut self, records: impl IntoIterator<Item = R>) {
        for item in records {
            self.push(item);
        }
    }

    /// Fold a borrowed bucket in; first-seen records are cloned.
    pub fn push_slice(&mut self, records: &[Record]) {
        self.fold(records);
    }

    /// Kept only for the frozen `benchmark/` until ROADMAP item 4a:
    /// [`ReduceMerge::push_slice`].
    pub fn push_bucket(&mut self, bucket: &[Record]) {
        self.fold(bucket);
    }

    /// Fold one map task's run in, as the shuffle table hands it out.
    pub fn push_run(&mut self, run: Run<'_>) {
        match run {
            Run::Moved(records) => self.fold(records.iter_mut().map(std::mem::take)),
            Run::Shared(records) => self.fold(records),
        }
    }

    /// Merged records in first-seen key order, plus reduce-op count.
    pub fn finish(self) -> (Vec<Record>, u64) {
        (self.out, self.ops)
    }

    /// [`ReduceMerge::finish`] of an accumulator made by
    /// [`ReduceMerge::in_arena`]: the key index goes back to `arena`.
    pub fn finish_in(self, arena: &mut TaskArena) -> (Vec<Record>, u64) {
        arena.index = self.index;
        (self.out, self.ops)
    }
}

/// Streaming merge for `repartition`: plain concatenation in push order.
#[derive(Default)]
pub struct ConcatMerge {
    out: Vec<Record>,
}

impl ConcatMerge {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one map task's run in, as the shuffle table hands it out.
    pub fn push_run(&mut self, run: Run<'_>) {
        match run {
            Run::Moved(records) => self.out.extend(records.iter_mut().map(std::mem::take)),
            Run::Shared(records) => self.out.extend_from_slice(records),
        }
    }

    /// Concatenated records in push order.
    pub fn finish(self) -> Vec<Record> {
        self.out
    }
}

/// One key of the grouping table with the values seen for it on the left
/// (`sides[0]`) and on the right (`sides[1]`), each in arrival order.
struct Group {
    key: Key,
    sides: [Vec<Value>; 2],
}

/// The streaming two-sided grouping table, and the inner hash join it
/// finishes to by default: values gather per key and side, keys in
/// first-seen order. Left records build the table; right records probe it,
/// and one whose key the left side lacks is dropped (inner) or given the
/// next slot (a co-group, [`JoinMerge::two_sided`]). Rights pushed before
/// [`JoinMerge::seal_left`] are buffered untouched and probed at seal time
/// in arrival order, so a consumer may interleave sides freely while
/// producing output identical to "all left, then all right".
#[derive(Default)]
pub struct JoinMerge {
    groups: Vec<Group>,
    index: KeyIndex,
    pending: Vec<Record>,
    sealed: bool,
    /// Keep a right record the left side has no key for.
    outer: bool,
    probes: u64,
}

impl JoinMerge {
    /// New empty join accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty table: a co-group's if `outer`, an inner join's if not.
    pub fn two_sided(outer: bool) -> Self {
        JoinMerge {
            outer,
            ..Self::default()
        }
    }

    /// The merge step for either side: a value joins its key's list on
    /// that side; the first record with a key also contributes the key. An
    /// inner join's right records only probe, and are counted doing so.
    /// Rights arriving before the seal are buffered whole.
    fn side<R: IntoRecord>(&mut self, records: impl IntoIterator<Item = R>, is_left: bool) {
        if !is_left && !self.sealed {
            self.pending.extend(records.into_iter().map(R::into_record));
            return;
        }
        debug_assert!(!is_left || !self.sealed, "left side pushed after seal_left");
        let (side, builds) = (usize::from(!is_left), is_left || self.outer);
        for item in records {
            let key = &item.borrow().key;
            let groups = &self.groups;
            let holds = |i: usize| groups[i].key == *key;
            let at = if builds {
                self.index.slot(key, holds)
            } else {
                self.probes += 1;
                match self.index.find(key, holds) {
                    Some(at) => at,
                    None => continue,
                }
            };
            if at < self.groups.len() {
                self.groups[at].sides[side].push(item.into_value());
            } else {
                let Record { key, value } = item.into_record();
                let mut sides = [Vec::new(), Vec::new()];
                sides[side] = vec![value];
                self.groups.push(Group { key, sides });
            }
        }
    }

    /// Declare the left side complete; buffered right records are probed
    /// now, in the order they arrived.
    pub fn seal_left(&mut self) {
        self.sealed = true;
        let pending = std::mem::take(&mut self.pending);
        self.side(pending, false);
    }

    /// Kept only for the frozen `benchmark/` until ROADMAP item 4a:
    /// routes a borrowed bucket to the chosen side.
    pub fn push_bucket(&mut self, bucket: &[Record], is_left: bool) {
        self.side(bucket, is_left);
    }

    /// Route one map task's run to the chosen side, as the shuffle table
    /// hands it out.
    pub fn push_run(&mut self, run: Run<'_>, is_left: bool) {
        match run {
            Run::Moved(records) => self.side(records.iter_mut().map(std::mem::take), is_left),
            Run::Shared(records) => self.side(records, is_left),
        }
    }

    /// An inner join's output — `Record(k, Pair(l, r))` for every pair of
    /// matching values, in left first-seen key order, pre-sized exactly
    /// from per-key match counts, one clone of the key and of both values
    /// per pair — plus the probe count. A co-group's is one
    /// `Record(k, Pair(List(lefts), List(rights)))` per key present on
    /// either side, in first-seen key order (left side first), built by
    /// moving the table out, and no probes.
    pub fn finish(mut self) -> (Vec<Record>, u64) {
        if !self.sealed {
            self.seal_left();
        }
        let out = if self.outer {
            let both = |g: Group| {
                let [ls, rs] = g
                    .sides
                    .map(|values| Box::new(Value::List(Arc::new(values))));
                Record::new(g.key, Value::Pair(ls, rs))
            };
            self.groups.into_iter().map(both).collect()
        } else {
            let matches = |g: &Group| g.sides[0].len() * g.sides[1].len();
            let mut out = Vec::with_capacity(self.groups.iter().map(matches).sum());
            for g in &self.groups {
                let [ls, rs] = &g.sides;
                for l in ls {
                    for r in rs {
                        let pair = Value::Pair(Box::new(l.clone()), Box::new(r.clone()));
                        out.push(Record::new(g.key.clone(), pair));
                    }
                }
            }
            out
        };
        (out, self.probes)
    }
}

/// Streaming merge for `group_by_key`: collects all values of a key into
/// a `Value::List`, preserving first-seen key order — the grouping table
/// with a left side only.
#[derive(Default)]
pub struct GroupMerge(JoinMerge);

impl GroupMerge {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Collect one map task's run in, as the shuffle table hands it out.
    pub fn push_run(&mut self, run: Run<'_>) {
        self.0.push_run(run, true);
    }

    /// One `Record(k, List(values))` per key, in first-seen key order.
    pub fn finish(self) -> Vec<Record> {
        let grouped = |g: Group| {
            let [values, _] = g.sides;
            Record::new(g.key, Value::List(Arc::new(values)))
        };
        self.0.groups.into_iter().map(grouped).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{HashPartitioner, RangePartitioner};
    use crate::record::batch_size;

    fn rec(k: i64, v: i64) -> Record {
        Record::new(Key::Int(k), Value::Int(v))
    }

    fn sum() -> ReduceFn {
        Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
    }

    /// Each accumulator fed whole parts, every one of them lent.
    fn reduced(parts: &[&[Record]]) -> (Vec<Record>, u64) {
        let mut m = ReduceMerge::new(sum());
        parts.iter().for_each(|part| m.push_slice(part));
        m.finish()
    }

    fn grouped(parts: &[&[Record]]) -> Vec<Record> {
        let mut m = GroupMerge::new();
        parts.iter().for_each(|part| m.push_run(Run::Shared(part)));
        m.finish()
    }

    fn concatenated(parts: &[&[Record]]) -> Vec<Record> {
        let mut m = ConcatMerge::new();
        parts.iter().for_each(|part| m.push_run(Run::Shared(part)));
        m.finish()
    }

    fn joined(left: &[Record], right: &[Record]) -> (Vec<Record>, u64) {
        let mut m = JoinMerge::new();
        m.push_run(Run::Shared(left), true);
        m.seal_left();
        m.push_run(Run::Shared(right), false);
        m.finish()
    }

    fn cogrouped(left: &[Record], right: &[Record]) -> Vec<Record> {
        let mut m = JoinMerge::two_sided(true);
        m.push_run(Run::Shared(left), true);
        m.seal_left();
        m.push_run(Run::Shared(right), false);
        m.finish().0
    }

    /// A whole task's write over a fresh arena, cut into buckets.
    fn write_buckets(
        records: &[Record],
        partitioner: &dyn Partitioner,
        combine: Option<&ReduceFn>,
    ) -> (TaskBuckets, u64) {
        let arena = &mut TaskArena::default();
        bucketize_owned_in(records.to_vec(), partitioner, combine, arena)
    }

    /// The survivors of a task's map-side fold, the records themselves
    /// without one.
    fn survivors(
        records: &[Record],
        combine: Option<&ReduceFn>,
        arena: &mut TaskArena,
    ) -> (Vec<Record>, u64) {
        match combine {
            Some(f) => {
                let mut m = ReduceMerge::in_arena(Arc::clone(f), arena);
                m.push_slice(records);
                m.finish_in(arena)
            }
            None => (records.to_vec(), 0),
        }
    }

    #[test]
    fn bucketize_routes_by_partitioner() {
        let p = HashPartitioner::new(4);
        let records: Vec<Record> = (0..100).map(|i| rec(i, i)).collect();
        let (tb, ops) = write_buckets(&records, &p, None);
        assert_eq!(ops, 0);
        assert_eq!(tb.buckets.len(), 4);
        let total: usize = tb.buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 100, "no records lost");
        for (i, b) in tb.buckets.iter().enumerate() {
            for r in b.iter() {
                assert_eq!(p.partition(&r.key), i);
            }
        }
        assert_eq!(tb.total_bytes(), batch_size(&records));
    }

    #[test]
    fn map_side_combine_shrinks_duplicates() {
        let p = HashPartitioner::new(2);
        // 100 records, only 4 distinct keys.
        let records: Vec<Record> = (0..100).map(|i| rec(i % 4, 1)).collect();
        let (tb, ops) = write_buckets(&records, &p, Some(&sum()));
        let total: usize = tb.buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 4, "one combined record per key");
        assert_eq!(ops, 96);
        // Each combined value is the count of its key's occurrences.
        for r in tb.buckets.iter().flat_map(|b| b.iter()) {
            assert_eq!(r.value.as_int(), 25);
        }
    }

    #[test]
    fn combine_volume_grows_with_map_partitions() {
        // The Fig. 4 mechanism: splitting the same input across more map
        // tasks yields more post-combine records in total.
        let records: Vec<Record> = (0..1000).map(|i| rec(i % 10, 1)).collect();
        let p = HashPartitioner::new(8);
        let volume = |num_map_tasks: usize| -> u64 {
            let chunk = records.len() / num_map_tasks;
            (0..num_map_tasks)
                .map(|m| {
                    let slice = &records[m * chunk..(m + 1) * chunk];
                    write_buckets(slice, &p, Some(&sum())).0.total_bytes()
                })
                .sum()
        };
        assert!(volume(100) > volume(10));
        assert!(volume(10) > volume(2));
    }

    #[test]
    fn reduce_folds_across_parts() {
        let a = vec![rec(1, 1), rec(2, 10)];
        let b = vec![rec(1, 2), rec(3, 100)];
        let (out, ops) = reduced(&[a.as_slice(), b.as_slice()]);
        assert_eq!(ops, 1);
        assert_eq!(out, vec![rec(1, 3), rec(2, 10), rec(3, 100)]);
    }

    #[test]
    fn reduce_is_deterministic_first_seen_order() {
        let a = vec![rec(5, 1), rec(3, 1), rec(9, 1)];
        let (out, _) = reduced(&[a.as_slice()]);
        let keys: Vec<i64> = out
            .iter()
            .map(|r| match &r.key {
                Key::Int(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![5, 3, 9]);
    }

    #[test]
    fn group_collects_lists() {
        let a = vec![rec(1, 1), rec(1, 2), rec(2, 3)];
        let out = grouped(&[a.as_slice()]);
        assert_eq!(out.len(), 2);
        match &out[0].value {
            Value::List(vs) => assert_eq!(vs.len(), 2),
            other => panic!("expected list, got {other:?}"),
        }
    }

    #[test]
    fn concat_preserves_everything() {
        let a = vec![rec(1, 1)];
        let b = vec![rec(1, 2), rec(2, 3)];
        assert_eq!(concatenated(&[a.as_slice(), b.as_slice()]).len(), 3);
    }

    #[test]
    fn join_emits_cross_product_per_key() {
        let left = vec![rec(1, 10), rec(1, 11), rec(2, 20)];
        let right = vec![rec(1, 100), rec(3, 300)];
        let (out, probes) = joined(&left, &right);
        assert_eq!(probes, 2);
        assert_eq!(out.len(), 2, "key 1 matches 2x1, keys 2 and 3 unmatched");
        for r in &out {
            assert_eq!(r.key, Key::Int(1));
            match &r.value {
                Value::Pair(l, r) => {
                    assert!(matches!(**l, Value::Int(10) | Value::Int(11)));
                    assert_eq!(**r, Value::Int(100));
                }
                other => panic!("expected pair, got {other:?}"),
            }
        }
    }

    #[test]
    fn join_with_empty_side_is_empty() {
        let left = vec![rec(1, 10)];
        assert!(joined(&left, &[]).0.is_empty());
        assert!(joined(&[], &left).0.is_empty());
    }

    #[test]
    fn cogroup_includes_unmatched_keys() {
        let left = vec![rec(1, 10)];
        let right = vec![rec(2, 20)];
        let out = cogrouped(&left, &right);
        assert_eq!(out.len(), 2);
        match &out[1].value {
            Value::Pair(l, r) => {
                assert_eq!(**l, Value::List(Arc::new(vec![])));
                assert_eq!(**r, Value::List(Arc::new(vec![Value::Int(20)])));
            }
            other => panic!("expected pair of lists, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_bucketizes_to_empty_buckets() {
        let p = HashPartitioner::new(3);
        let (tb, _) = write_buckets(&[], &p, Some(&sum()));
        assert!(tb.buckets.iter().all(|b| b.is_empty()));
        assert_eq!(tb.total_bytes(), 0);
    }

    #[test]
    fn streaming_join_buffers_rights_pushed_before_seal() {
        let left: Vec<Record> = (0..20).map(|i| rec(i % 6, i)).collect();
        let right: Vec<Record> = (0..15).map(|i| rec(i % 8, i + 100)).collect();
        let (lent, lent_probes) = joined(&left, &right);
        // Interleave: rights arrive before the left side is complete.
        let mut m = JoinMerge::new();
        m.push_run(Run::Moved(&mut right[..7].to_vec()), false);
        m.push_run(Run::Moved(&mut left[..10].to_vec()), true);
        m.push_run(Run::Moved(&mut right[7..].to_vec()), false);
        m.push_run(Run::Moved(&mut left[10..].to_vec()), true);
        m.seal_left();
        let (streamed, probes) = m.finish();
        assert_eq!(streamed, lent);
        assert_eq!(probes, lent_probes);
    }

    #[test]
    fn streaming_cogroup_buffers_rights_pushed_before_seal() {
        let left: Vec<Record> = (0..12).map(|i| rec(i % 5, i)).collect();
        let right: Vec<Record> = (0..12).map(|i| rec(i % 7, i + 50)).collect();
        let lent = cogrouped(&left, &right);
        let mut m = JoinMerge::two_sided(true);
        m.push_run(Run::Moved(&mut right[..5].to_vec()), false);
        m.push_run(Run::Moved(&mut left.clone()), true);
        m.push_run(Run::Moved(&mut right[5..].to_vec()), false);
        m.seal_left();
        assert_eq!(m.finish().0, lent);
    }

    #[test]
    fn a_reused_arena_does_not_change_the_write() {
        let p = HashPartitioner::new(4);
        let mut arena = TaskArena::default();
        for round in 0..3 {
            for combine in [None, Some(sum())] {
                let records: Vec<Record> = (0..200).map(|i| rec((i + round) % 13, i)).collect();
                let fresh = write_buckets(&records, &p, combine.as_ref());
                let (reused, ops) =
                    bucketize_owned_in(records.clone(), &p, combine.as_ref(), &mut arena);
                assert_eq!(ops, fresh.1);
                assert_eq!(reused.bytes, fresh.0.bytes);
                assert_eq!(reused.buckets, fresh.0.buckets);
            }
        }
    }

    #[test]
    fn row_runs_merge_like_slices_moved_or_shared() {
        let a: Vec<Record> = (0..60).map(|i| rec(i % 9, i)).collect();
        let b: Vec<Record> = (0..60).map(|i| rec(i % 6, i * 2)).collect();
        // `a` travels as a run with one reader (moved out, placeholders
        // left behind); `b` as a run other readers still need (cloned).
        let moved = |check: &mut dyn FnMut(Run<'_>, Run<'_>)| {
            let mut owned = a.clone();
            check(Run::Moved(&mut owned), Run::Shared(&b));
            assert!(owned.iter().all(|r| *r == Record::default()));
        };

        moved(&mut |ra, rb| {
            let mut m = ReduceMerge::new(sum());
            m.push_run(ra);
            m.push_run(rb);
            assert_eq!(m.finish(), reduced(&[a.as_slice(), b.as_slice()]));
        });
        moved(&mut |ra, rb| {
            let mut g = GroupMerge::new();
            g.push_run(ra);
            g.push_run(rb);
            assert_eq!(g.finish(), grouped(&[a.as_slice(), b.as_slice()]));
        });
        moved(&mut |ra, rb| {
            let mut c = ConcatMerge::new();
            c.push_run(ra);
            c.push_run(rb);
            assert_eq!(c.finish(), concatenated(&[a.as_slice(), b.as_slice()]));
        });
        moved(&mut |ra, rb| {
            let mut j = JoinMerge::new();
            j.push_run(ra, true);
            j.seal_left();
            j.push_run(rb, false);
            assert_eq!(j.finish(), joined(&a, &b));
        });
        moved(&mut |ra, rb| {
            let mut cg = JoinMerge::two_sided(true);
            cg.push_run(rb, true);
            cg.seal_left();
            cg.push_run(ra, false);
            assert_eq!(cg.finish().0, cogrouped(&b, &a));
        });
    }

    #[test]
    fn runs_are_the_buckets_laid_end_to_end() {
        // The laid-out survivors are the buckets, with and without
        // combine; the spans tile the records; and first-seen order holds
        // inside a run even when two keys share a partition.
        let records: Vec<Record> = (0..500).map(|i| rec((i * 7) % 41, i)).collect();
        let hash = HashPartitioner::new(16);
        let keys: Vec<Key> = records.iter().map(|r| r.key.clone()).collect();
        let range = RangePartitioner::from_sample(keys.iter(), 16, 3);
        for part in [&hash as &dyn Partitioner, &range] {
            for combine in [None, Some(sum())] {
                let arena = &mut TaskArena::default();
                let (kept, ops) = survivors(&records, combine.as_ref(), arena);
                let runs = lay_out(kept, part, arena);
                let rows = &runs.records;
                let mut at = 0;
                for (s, next) in runs.spans.iter().zip(runs.spans.iter().skip(1)) {
                    assert!(s.partition < next.partition, "ascending partitions");
                }
                for s in &runs.spans {
                    assert_eq!(s.start as usize, at, "the spans tile the records");
                    at = s.end as usize;
                    let run = &rows[s.start as usize..s.end as usize];
                    assert!(!run.is_empty());
                    assert_eq!(s.bytes, batch_size(run));
                    assert!(run
                        .iter()
                        .all(|r| part.partition(&r.key) == s.partition as usize));
                    if combine.is_some() {
                        let mut keys: Vec<&Key> = run.iter().map(|r| &r.key).collect();
                        keys.dedup();
                        keys.sort();
                        keys.dedup();
                        assert_eq!(keys.len(), run.len(), "one record per key");
                    }
                }
                assert_eq!(at, rows.len());
                let (buckets, bucketized_ops) = write_buckets(&records, part, combine.as_ref());
                assert_eq!(ops, bucketized_ops);
                assert_eq!(runs.into_buckets().buckets, buckets.buckets);
            }
        }
    }

    /// One copy of "how are equal keys found": outside [`KeyIndex`] no
    /// accumulator declares a hash table of its own, and none anywhere
    /// chains through a vector per key. The next accumulator takes a
    /// `KeyIndex` field.
    #[test]
    fn the_key_index_is_the_only_hash_table() {
        let (table, per_key) = (
            concat!("Hash", "Map<u64"),
            concat!("Hash", "Map<u64, Vec<u32>"),
        );
        let source = include_str!("shuffle.rs");
        let declared: Vec<_> = source.lines().filter(|l| l.contains(table)).collect();
        assert_eq!(declared.len(), 1, "identity-hashed tables: {declared:#?}");
        assert!(
            declared[0].contains("heads:"),
            "not the index: {declared:#?}"
        );
        assert!(
            !source.contains(per_key),
            "a table allocating per distinct key"
        );
    }

    #[test]
    fn the_index_keeps_unequal_keys_that_share_a_hash_apart() {
        // Five keys under two hashes, so chains of three and two.
        let hash = |k: i64| (k % 2) as u64;
        let mut index = KeyIndex::default();
        let mut held: Vec<i64> = Vec::new();
        for k in [4, 7, 2, 4, 9, 6, 7, 2, 6] {
            let at = index.slot_hashed(hash(k), |i| held[i] == k);
            if at == held.len() {
                held.push(k);
            }
            assert_eq!(held[at], k);
        }
        assert_eq!(held, [4, 7, 2, 9, 6], "slots are first-seen positions");
        for (at, &k) in held.iter().enumerate() {
            assert_eq!(index.find_hashed(hash(k), |i| held[i] == k), Some(at));
        }
        assert_eq!(
            index.find_hashed(hash(8), |i| held[i] == 8),
            None,
            "chain exhausted"
        );
        index.clear();
        assert_eq!(index.find_hashed(hash(4), |i| held[i] == 4), None);
        assert_eq!(
            index.slot_hashed(hash(9), |_| unreachable!("nothing held")),
            0
        );
    }

    /// Keys that take the direct lookup (integers in `0..SMALL_INTS`) and
    /// keys that take the hash table number their slots as one sequence,
    /// in first-seen order, and a cleared index forgets both.
    #[test]
    fn small_integers_and_hashed_keys_share_one_slot_sequence() {
        let keys = [
            Key::Int(3),
            Key::str("a"),
            Key::Int(-1),
            Key::Int(SMALL_INTS as i64),
            Key::Int(3),
            Key::Int(SMALL_INTS as i64 - 1),
            Key::str("a"),
            Key::Int(0),
        ];
        let mut index = KeyIndex::default();
        let mut held: Vec<Key> = Vec::new();
        let slots: Vec<usize> = keys
            .iter()
            .map(|k| {
                let at = index.slot(k, |i| held[i] == *k);
                if at == held.len() {
                    held.push(k.clone());
                }
                at
            })
            .collect();
        assert_eq!(slots, [0, 1, 2, 3, 0, 4, 1, 5]);
        for (at, k) in held.iter().enumerate() {
            assert_eq!(index.find(k, |i| held[i] == *k), Some(at));
        }
        assert_eq!(index.find(&Key::Int(7), |_| false), None);
        index.clear();
        assert_eq!(index.find(&Key::Int(3), |_| true), None);
        assert_eq!(index.find(&Key::str("a"), |_| true), None);
        assert_eq!(index.slot(&Key::Int(5), |_| unreachable!()), 0);
    }

    /// Integer keys `2^56` apart agree in the low 18 bits of their probe
    /// hash (the property tests draw such keys to crowd one bucket), yet
    /// the hash of an integer is a bijection, and equal keys of any shape
    /// hash equal.
    #[test]
    fn integer_keys_2_56_apart_share_the_low_probe_bits() {
        let low = |k: i64| KeyIndex::hash(&Key::Int(k)) & ((1 << 18) - 1);
        for base in [-3, 0, 5] {
            let hashes: Vec<u64> = (0..8)
                .map(|j| KeyIndex::hash(&Key::Int(base + (j << 56))))
                .collect();
            assert!((0..8).all(|j| low(base + (j << 56)) == low(base)));
            let mut distinct = hashes.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(
                distinct.len(),
                hashes.len(),
                "unequal integers, unequal hashes"
            );
        }
        let pair = || Key::Pair(Box::new(Key::str("a")), Box::new(Key::Int(1)));
        assert_eq!(KeyIndex::hash(&pair()), KeyIndex::hash(&pair()));
        assert_eq!(KeyIndex::hash(&Key::None), Key::None.stable_hash());
    }

    #[test]
    fn spill_overflow_charges_only_the_excess() {
        // Fits exactly: no spill.
        assert_eq!(spill_overflow(1000, 1000), 0);
        assert_eq!(spill_overflow(0, 1000), 0);
        // One byte over the budget spills one byte.
        assert_eq!(spill_overflow(1001, 1000), 1);
        assert_eq!(spill_overflow(5000, 1000), 4000);
        // Zero budget spills everything.
        assert_eq!(spill_overflow(5000, 0), 5000);
    }
}
