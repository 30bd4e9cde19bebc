//! Shuffle mechanics: map-side bucketing (with optional combine) and
//! reduce-side merges.
//!
//! The volume a shuffle moves is *measured from real data*, not modeled:
//! every map task partitions its actual output records with the consumer's
//! partitioner and, for reduce-by-key, combines duplicates map-side first.
//! This is why the paper's Fig. 4 shape — shuffle bytes growing with the
//! partition count — emerges organically here: with more map partitions,
//! each partition sees fewer duplicate keys, the combiner collapses less,
//! and more records survive to be shuffled.
//!
//! Reduce-side merges are *incremental*: each merge is an accumulator
//! ([`ReduceMerge`], [`GroupMerge`], [`ConcatMerge`], [`JoinMerge`],
//! [`CogroupMerge`]) that consumes one map-task bucket at a time, so a
//! reduce task never materializes its whole input. Buckets pushed by
//! value are *moved* into the accumulator (no per-record clone); the
//! batch `merge_*` functions are thin wrappers that feed borrowed slices
//! through the same accumulators.
//!
//! All merges preserve first-seen key order, keeping the engine
//! deterministic end-to-end (no `HashMap` iteration order leaks into
//! results, byte counts, or range-partitioner samples). The dedup tables
//! are keyed on each key's [`Key::stable_hash`] through a pass-through
//! hasher, with same-hash slots disambiguated by a real key comparison —
//! equality semantics identical to hashing the key itself.

use crate::batch::ColumnBatch;
use crate::ops::ReduceFn;
use crate::partitioner::Partitioner;
use crate::record::{batch_size, Key, Record, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// One reduce-partition bucket of a map task's output: a plain record
/// vector (the row path) or a zero-copy slice of the task's
/// partition-ordered [`ColumnBatch`] (the `--batch on` path). Cloning
/// either variant only bumps `Arc` refcounts.
#[derive(Debug, Clone)]
pub enum Bucket {
    /// Row bucket, shared by reference.
    Rows(Arc<Vec<Record>>),
    /// Columnar bucket: a slice view into the producing task's batch.
    Cols(ColumnBatch),
}

impl Bucket {
    /// Record count.
    pub fn len(&self) -> usize {
        match self {
            Bucket::Rows(v) => v.len(),
            Bucket::Cols(b) => b.len(),
        }
    }

    /// Whether the bucket holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the bucket's records (cloned / reconstructed).
    pub fn to_vec(&self) -> Vec<Record> {
        match self {
            Bucket::Rows(v) => v.as_ref().clone(),
            Bucket::Cols(b) => b.to_records(),
        }
    }

    /// The bucket's records by value: moved out when this is the last
    /// handle on a row bucket, cloned / reconstructed otherwise.
    pub fn into_records(self) -> Vec<Record> {
        match self {
            Bucket::Rows(v) => Arc::try_unwrap(v).unwrap_or_else(|shared| shared.as_ref().clone()),
            Bucket::Cols(b) => b.to_records(),
        }
    }
}

/// Buckets compare by logical record content, independent of layout: a row
/// bucket equals a columnar bucket holding the same records in the same
/// order.
impl PartialEq for Bucket {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Bucket::Rows(a), Bucket::Rows(b)) => a == b,
            (a, b) => a.len() == b.len() && a.to_vec() == b.to_vec(),
        }
    }
}

/// Map-side output of one task: one bucket per reduce partition.
#[derive(Debug, Clone)]
pub struct TaskBuckets {
    /// Records per reduce partition.
    pub buckets: Vec<Bucket>,
    /// Serialized size per reduce partition.
    pub bytes: Vec<u64>,
}

impl TaskBuckets {
    /// Total bytes this task wrote.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Pass-through hasher for keys that are already good hashes (`stable_hash`
/// output); avoids re-hashing `u64` map keys in the combine path.
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

/// Reusable scratch space for [`bucketize_in`]: the partition-assignment
/// vector, bucket-count vector, and combine dedup indexes survive across
/// calls, so a long-lived worker stops paying per-task allocation churn.
/// Bucket payload vectors themselves are *not* pooled — they are moved
/// into `Arc`s and owned downstream by the shuffle consumer.
#[derive(Default)]
pub struct TaskArena {
    assignment: Vec<u32>,
    counts: Vec<usize>,
    index: Vec<HashMap<u64, Vec<u32>, IdentityBuild>>,
}

/// Buckets `records` by `partitioner`, optionally combining values per key
/// within each bucket (map-side combine for reduce-by-key).
///
/// Each record's key is hashed at most once: the `stable_hash` drives both
/// the partition choice (for hash partitioners) and the combine index. The
/// no-combine path sizes every bucket exactly before copying a single
/// record.
///
/// Returns the buckets and the number of combine applications performed
/// (for cost accounting).
pub fn bucketize(
    records: &[Record],
    partitioner: &dyn Partitioner,
    combine: Option<&ReduceFn>,
) -> (TaskBuckets, u64) {
    bucketize_in(records, partitioner, combine, &mut TaskArena::default())
}

/// [`bucketize`] with caller-owned scratch space. Behaviour is identical;
/// only the allocation pattern differs (scratch buffers are cleared and
/// reused instead of freshly allocated).
pub fn bucketize_in(
    records: &[Record],
    partitioner: &dyn Partitioner,
    combine: Option<&ReduceFn>,
    arena: &mut TaskArena,
) -> (TaskBuckets, u64) {
    let p = partitioner.num_partitions();
    let mut combine_ops = 0u64;
    let buckets: Vec<Vec<Record>> = match combine {
        None => {
            // Pass 1: partition assignment + exact bucket sizes.
            let assignment = &mut arena.assignment;
            assignment.clear();
            assignment.reserve(records.len());
            let counts = &mut arena.counts;
            counts.clear();
            counts.resize(p, 0);
            for r in records {
                let b = partitioner.partition(&r.key);
                counts[b] += 1;
                assignment.push(b as u32);
            }
            // Pass 2: copy each surviving record into a pre-sized bucket.
            let mut out: Vec<Vec<Record>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
            for (r, &b) in records.iter().zip(assignment.iter()) {
                out[b as usize].push(r.clone());
            }
            out
        }
        Some(f) => {
            // First-seen-order combine per bucket. The dedup index is keyed
            // on the record's stable hash (identity-hashed); same-hash slots
            // are disambiguated by a real key comparison.
            if arena.index.len() < p {
                arena.index.resize_with(p, HashMap::default);
            }
            let index = &mut arena.index[..p];
            for m in index.iter_mut() {
                m.clear();
            }
            let mut out: Vec<Vec<Record>> = vec![Vec::new(); p];
            for r in records {
                let h = r.key.stable_hash();
                let b = partitioner.partition_hashed(&r.key, h);
                let bucket = &mut out[b];
                let slots = index[b].entry(h).or_default();
                match slots.iter().find(|&&i| bucket[i as usize].key == r.key) {
                    Some(&i) => {
                        let merged = f(&bucket[i as usize].value, &r.value);
                        bucket[i as usize].value = merged;
                        combine_ops += 1;
                    }
                    None => {
                        slots.push(bucket.len() as u32);
                        bucket.push(r.clone());
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
                .map(|b| Bucket::Rows(Arc::new(b)))
                .collect(),
            bytes,
        },
        combine_ops,
    )
}

/// [`bucketize_in`] over an *owned* record vector: records are moved into
/// their buckets instead of cloned. Output is identical to the borrowing
/// version on the same input — same bucket contents, same byte table, same
/// combine-op count — only the allocation pattern differs. The executor
/// uses this at shuffle-write task finish whenever the task owns its
/// output outright, and the borrowing version when the output windows a
/// shared cache partition.
pub fn bucketize_owned_in(
    records: Vec<Record>,
    partitioner: &dyn Partitioner,
    combine: Option<&ReduceFn>,
    arena: &mut TaskArena,
) -> (TaskBuckets, u64) {
    let p = partitioner.num_partitions();
    let mut combine_ops = 0u64;
    let buckets: Vec<Vec<Record>> = match combine {
        None => {
            let assignment = &mut arena.assignment;
            assignment.clear();
            assignment.reserve(records.len());
            let counts = &mut arena.counts;
            counts.clear();
            counts.resize(p, 0);
            for r in &records {
                let b = partitioner.partition(&r.key);
                counts[b] += 1;
                assignment.push(b as u32);
            }
            let mut out: Vec<Vec<Record>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
            for (r, &b) in records.into_iter().zip(arena.assignment.iter()) {
                out[b as usize].push(r);
            }
            out
        }
        Some(f) => {
            if arena.index.len() < p {
                arena.index.resize_with(p, HashMap::default);
            }
            let index = &mut arena.index[..p];
            for m in index.iter_mut() {
                m.clear();
            }
            let mut out: Vec<Vec<Record>> = vec![Vec::new(); p];
            for r in records {
                let h = r.key.stable_hash();
                let b = partitioner.partition_hashed(&r.key, h);
                let bucket = &mut out[b];
                let slots = index[b].entry(h).or_default();
                match slots.iter().find(|&&i| bucket[i as usize].key == r.key) {
                    Some(&i) => {
                        let merged = f(&bucket[i as usize].value, &r.value);
                        bucket[i as usize].value = merged;
                        combine_ops += 1;
                    }
                    None => {
                        slots.push(bucket.len() as u32);
                        bucket.push(r);
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
                .map(|b| Bucket::Rows(Arc::new(b)))
                .collect(),
            bytes,
        },
        combine_ops,
    )
}

/// Columnar bucketize for combine-free shuffle writes: converts the task
/// output to a [`ColumnBatch`], computes partition assignment with one
/// pass over the key column, reorders into partition-contiguous buffers
/// with a stable counting sort, and returns each bucket as a zero-copy
/// slice of the gathered batch. Byte tables come from buffer lengths.
///
/// Returns `None` when the keys or values do not fit a typed column
/// layout (composite keys, mixed variants, boxed payloads) — the caller
/// falls back to the row path, *moving* owned records into buckets
/// instead of deep-cloning them into fallback row columns. When it
/// succeeds, bucket contents, intra-bucket
/// order, and byte tables are bit-identical to [`bucketize_in`] without
/// combine.
pub fn bucketize_columnar(
    records: &[Record],
    partitioner: &dyn Partitioner,
    arena: &mut TaskArena,
) -> Option<(TaskBuckets, u64)> {
    let batch = ColumnBatch::from_records_typed(records)?;
    let p = partitioner.num_partitions();
    let assignment = &mut arena.assignment;
    assignment.clear();
    assignment.reserve(records.len());
    batch.partition_assignment(partitioner, assignment);
    let (gathered, offsets) = batch.gather(assignment, p);
    let mut buckets = Vec::with_capacity(p);
    let mut bytes = Vec::with_capacity(p);
    for b in 0..p {
        let slice = gathered.slice(offsets[b], offsets[b + 1] - offsets[b]);
        bytes.push(slice.encoded_size());
        buckets.push(Bucket::Cols(slice));
    }
    Some((TaskBuckets { buckets, bytes }, 0))
}

/// Map-side spill overflow: the bytes of a task's shuffle write that do
/// not fit in its execution-memory share. The overflow is written to
/// disk during the map pass and read back during the merge, so it
/// charges twice — once as a write, once as a local read.
pub fn spill_overflow(write_bytes: u64, task_mem_budget: u64) -> u64 {
    write_bytes.saturating_sub(task_mem_budget)
}

/// Streaming reduce-side merge for `reduce_by_key`: folds all values of a
/// key with `f`, preserving first-seen key order. Buckets can be pushed
/// one at a time, owned (records are moved) or borrowed (records are
/// cloned on first sight only).
pub struct ReduceMerge {
    f: ReduceFn,
    out: Vec<Record>,
    index: HashMap<u64, Vec<u32>, IdentityBuild>,
    ops: u64,
}

impl ReduceMerge {
    /// New accumulator folding with `f`.
    pub fn new(f: ReduceFn) -> Self {
        Self {
            f,
            out: Vec::new(),
            index: HashMap::default(),
            ops: 0,
        }
    }

    /// Fold an owned bucket in; first-seen records are moved, not cloned.
    pub fn push_owned(&mut self, records: Vec<Record>) {
        let Self { f, out, index, ops } = self;
        for r in records {
            let h = r.key.stable_hash();
            let slots = index.entry(h).or_default();
            match slots.iter().find(|&&i| out[i as usize].key == r.key) {
                Some(&i) => {
                    out[i as usize].value = f(&out[i as usize].value, &r.value);
                    *ops += 1;
                }
                None => {
                    slots.push(out.len() as u32);
                    out.push(r);
                }
            }
        }
    }

    /// Fold a borrowed bucket in; first-seen records are cloned.
    pub fn push_slice(&mut self, records: &[Record]) {
        let Self { f, out, index, ops } = self;
        for r in records {
            let h = r.key.stable_hash();
            let slots = index.entry(h).or_default();
            match slots.iter().find(|&&i| out[i as usize].key == r.key) {
                Some(&i) => {
                    out[i as usize].value = f(&out[i as usize].value, &r.value);
                    *ops += 1;
                }
                None => {
                    slots.push(out.len() as u32);
                    out.push(r.clone());
                }
            }
        }
    }

    /// Fold a columnar bucket in; records are reconstructed row by row and
    /// moved (no intermediate `Vec`).
    pub fn push_batch(&mut self, batch: &ColumnBatch) {
        let Self { f, out, index, ops } = self;
        batch.for_each_record(|r| {
            let h = r.key.stable_hash();
            let slots = index.entry(h).or_default();
            match slots.iter().find(|&&i| out[i as usize].key == r.key) {
                Some(&i) => {
                    out[i as usize].value = f(&out[i as usize].value, &r.value);
                    *ops += 1;
                }
                None => {
                    slots.push(out.len() as u32);
                    out.push(r);
                }
            }
        });
    }

    /// Fold a shipped bucket in, whichever layout it arrived in.
    pub fn push_bucket(&mut self, bucket: &Bucket) {
        match bucket {
            Bucket::Rows(v) => self.push_slice(v),
            Bucket::Cols(b) => self.push_batch(b),
        }
    }

    /// Fold a shipped bucket by value: a row bucket whose handle is the
    /// last one is moved in, a shared one is cloned from.
    pub fn push_bucket_owned(&mut self, bucket: Bucket) {
        match bucket {
            Bucket::Cols(b) => self.push_batch(&b),
            Bucket::Rows(v) => match Arc::try_unwrap(v) {
                Ok(owned) => self.push_owned(owned),
                Err(shared) => self.push_slice(&shared),
            },
        }
    }

    /// Merged records in first-seen key order, plus reduce-op count.
    pub fn finish(self) -> (Vec<Record>, u64) {
        (self.out, self.ops)
    }
}

/// Reduce-side merge for `reduce_by_key`: folds all values of a key with
/// `f`, preserving first-seen key order. Returns records and the number of
/// reduce applications.
pub fn merge_reduce<'a, I>(parts: I, f: &ReduceFn) -> (Vec<Record>, u64)
where
    I: IntoIterator<Item = &'a [Record]>,
{
    let mut m = ReduceMerge::new(Arc::clone(f));
    for part in parts {
        m.push_slice(part);
    }
    m.finish()
}

/// Streaming reduce-side merge for `group_by_key`: collects all values of
/// a key into a `Value::List`, preserving first-seen key order.
#[derive(Default)]
pub struct GroupMerge {
    order: Vec<Key>,
    groups: Vec<Vec<Value>>,
    index: HashMap<u64, Vec<u32>, IdentityBuild>,
}

impl GroupMerge {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Collect an owned bucket; keys and values are moved.
    pub fn push_owned(&mut self, records: Vec<Record>) {
        for r in records {
            let h = r.key.stable_hash();
            let slots = self.index.entry(h).or_default();
            match slots
                .iter()
                .find(|&&i| self.order[i as usize] == r.key)
                .copied()
            {
                Some(i) => self.groups[i as usize].push(r.value),
                None => {
                    slots.push(self.order.len() as u32);
                    self.order.push(r.key);
                    self.groups.push(vec![r.value]);
                }
            }
        }
    }

    /// Collect a borrowed bucket; keys and values are cloned.
    pub fn push_slice(&mut self, records: &[Record]) {
        for r in records {
            let h = r.key.stable_hash();
            let slots = self.index.entry(h).or_default();
            match slots
                .iter()
                .find(|&&i| self.order[i as usize] == r.key)
                .copied()
            {
                Some(i) => self.groups[i as usize].push(r.value.clone()),
                None => {
                    slots.push(self.order.len() as u32);
                    self.order.push(r.key.clone());
                    self.groups.push(vec![r.value.clone()]);
                }
            }
        }
    }

    /// Collect a columnar bucket; records are reconstructed and moved.
    pub fn push_batch(&mut self, batch: &ColumnBatch) {
        batch.for_each_record(|r| {
            let h = r.key.stable_hash();
            let slots = self.index.entry(h).or_default();
            match slots
                .iter()
                .find(|&&i| self.order[i as usize] == r.key)
                .copied()
            {
                Some(i) => self.groups[i as usize].push(r.value),
                None => {
                    slots.push(self.order.len() as u32);
                    self.order.push(r.key);
                    self.groups.push(vec![r.value]);
                }
            }
        });
    }

    /// Collect a shipped bucket by value: a row bucket whose handle is the
    /// last one is moved in, a shared one is cloned from.
    pub fn push_bucket_owned(&mut self, bucket: Bucket) {
        match bucket {
            Bucket::Cols(b) => self.push_batch(&b),
            Bucket::Rows(v) => match Arc::try_unwrap(v) {
                Ok(owned) => self.push_owned(owned),
                Err(shared) => self.push_slice(&shared),
            },
        }
    }

    /// One `Record(k, List(values))` per key, in first-seen key order.
    pub fn finish(self) -> Vec<Record> {
        self.order
            .into_iter()
            .zip(self.groups)
            .map(|(k, vals)| Record::new(k, Value::List(Arc::new(vals))))
            .collect()
    }
}

/// Reduce-side merge for `group_by_key`: collects all values of a key into
/// a `Value::List`, preserving first-seen key order.
pub fn merge_group<'a, I>(parts: I) -> Vec<Record>
where
    I: IntoIterator<Item = &'a [Record]>,
{
    let mut m = GroupMerge::new();
    for part in parts {
        m.push_slice(part);
    }
    m.finish()
}

/// Streaming merge for `repartition`: plain concatenation in push order.
/// The first owned bucket is adopted wholesale (no copy at all).
#[derive(Default)]
pub struct ConcatMerge {
    out: Vec<Record>,
}

impl ConcatMerge {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an owned bucket; records are moved.
    pub fn push_owned(&mut self, records: Vec<Record>) {
        if self.out.is_empty() {
            self.out = records;
        } else {
            self.out.extend(records);
        }
    }

    /// Append a borrowed bucket; records are cloned.
    pub fn push_slice(&mut self, records: &[Record]) {
        self.out.extend_from_slice(records);
    }

    /// Append a columnar bucket; records are reconstructed in order.
    pub fn push_batch(&mut self, batch: &ColumnBatch) {
        self.out.reserve(batch.len());
        batch.for_each_record(|r| self.out.push(r));
    }

    /// Append a shipped bucket by value: a row bucket whose handle is the
    /// last one is moved in, a shared one is cloned from.
    pub fn push_bucket_owned(&mut self, bucket: Bucket) {
        match bucket {
            Bucket::Cols(b) => self.push_batch(&b),
            Bucket::Rows(v) => match Arc::try_unwrap(v) {
                Ok(owned) => self.push_owned(owned),
                Err(shared) => self.push_slice(&shared),
            },
        }
    }

    /// Concatenated records in push order.
    pub fn finish(self) -> Vec<Record> {
        self.out
    }
}

/// Reduce-side merge for `repartition`: plain concatenation.
pub fn merge_concat<'a, I>(parts: I) -> Vec<Record>
where
    I: IntoIterator<Item = &'a [Record]>,
{
    let mut m = ConcatMerge::new();
    for part in parts {
        m.push_slice(part);
    }
    m.finish()
}

/// Streaming inner hash join. Left buckets build the table; right buckets
/// probe it. Right buckets pushed before [`JoinMerge::seal_left`] are
/// buffered untouched and probed at seal time in arrival order, so a
/// consumer may interleave sides freely while producing output identical
/// to "all left, then all right".
pub struct JoinMerge {
    order: Vec<Key>,
    lefts: Vec<Vec<Value>>,
    rights: Vec<Vec<Value>>,
    index: HashMap<u64, Vec<u32>, IdentityBuild>,
    pending: Vec<Record>,
    sealed: bool,
    probes: u64,
}

impl JoinMerge {
    /// New empty join accumulator.
    pub fn new() -> Self {
        Self {
            order: Vec::new(),
            lefts: Vec::new(),
            rights: Vec::new(),
            index: HashMap::default(),
            pending: Vec::new(),
            sealed: false,
            probes: 0,
        }
    }

    fn build(&mut self, key: Key, value: Value) {
        let h = key.stable_hash();
        let slots = self.index.entry(h).or_default();
        match slots
            .iter()
            .find(|&&i| self.order[i as usize] == key)
            .copied()
        {
            Some(i) => self.lefts[i as usize].push(value),
            None => {
                slots.push(self.order.len() as u32);
                self.order.push(key);
                self.lefts.push(vec![value]);
                self.rights.push(Vec::new());
            }
        }
    }

    /// Build the table from an owned left bucket; records are moved.
    pub fn push_left_owned(&mut self, records: Vec<Record>) {
        debug_assert!(!self.sealed, "left side pushed after seal_left");
        for r in records {
            self.build(r.key, r.value);
        }
    }

    /// Build the table from a borrowed left bucket; records are cloned.
    pub fn push_left_slice(&mut self, records: &[Record]) {
        debug_assert!(!self.sealed, "left side pushed after seal_left");
        for r in records {
            self.build(r.key.clone(), r.value.clone());
        }
    }

    fn probe_owned(&mut self, r: Record) {
        self.probes += 1;
        let h = r.key.stable_hash();
        let hit = self
            .index
            .get(&h)
            .and_then(|slots| slots.iter().find(|&&i| self.order[i as usize] == r.key))
            .copied();
        if let Some(i) = hit {
            self.rights[i as usize].push(r.value);
        }
    }

    fn probe_ref(&mut self, r: &Record) {
        self.probes += 1;
        let h = r.key.stable_hash();
        let hit = self
            .index
            .get(&h)
            .and_then(|slots| slots.iter().find(|&&i| self.order[i as usize] == r.key))
            .copied();
        if let Some(i) = hit {
            self.rights[i as usize].push(r.value.clone());
        }
    }

    /// Declare the left side complete; buffered right buckets are probed
    /// now, in the order they arrived.
    pub fn seal_left(&mut self) {
        self.sealed = true;
        let pending = std::mem::take(&mut self.pending);
        for r in pending {
            self.probe_owned(r);
        }
    }

    /// Probe with an owned right bucket (buffered if the left side is not
    /// sealed yet); matched values are moved, not cloned.
    pub fn push_right_owned(&mut self, records: Vec<Record>) {
        if !self.sealed {
            if self.pending.is_empty() {
                self.pending = records;
            } else {
                self.pending.extend(records);
            }
            return;
        }
        for r in records {
            self.probe_owned(r);
        }
    }

    /// Probe with a borrowed right bucket; matched values are cloned.
    pub fn push_right_slice(&mut self, records: &[Record]) {
        if !self.sealed {
            self.pending.extend_from_slice(records);
            return;
        }
        for r in records {
            self.probe_ref(r);
        }
    }

    /// Build the table from a columnar left bucket.
    pub fn push_left_batch(&mut self, batch: &ColumnBatch) {
        debug_assert!(!self.sealed, "left side pushed after seal_left");
        batch.for_each_record(|r| self.build(r.key, r.value));
    }

    /// Probe with a columnar right bucket (buffered if the left side is
    /// not sealed yet).
    pub fn push_right_batch(&mut self, batch: &ColumnBatch) {
        if !self.sealed {
            self.pending.reserve(batch.len());
            batch.for_each_record(|r| self.pending.push(r));
            return;
        }
        batch.for_each_record(|r| self.probe_owned(r));
    }

    /// Route a shipped bucket to the chosen side, whichever layout it
    /// arrived in.
    pub fn push_bucket(&mut self, bucket: &Bucket, is_left: bool) {
        match (bucket, is_left) {
            (Bucket::Rows(v), true) => self.push_left_slice(v),
            (Bucket::Rows(v), false) => self.push_right_slice(v),
            (Bucket::Cols(b), true) => self.push_left_batch(b),
            (Bucket::Cols(b), false) => self.push_right_batch(b),
        }
    }

    /// Route a shipped bucket to the chosen side by value: a row bucket
    /// whose handle is the last one is moved in, a shared one is cloned
    /// from.
    pub fn push_bucket_owned(&mut self, bucket: Bucket, is_left: bool) {
        match (bucket, is_left) {
            (Bucket::Cols(b), true) => self.push_left_batch(&b),
            (Bucket::Cols(b), false) => self.push_right_batch(&b),
            (Bucket::Rows(v), true) => match Arc::try_unwrap(v) {
                Ok(owned) => self.push_left_owned(owned),
                Err(shared) => self.push_left_slice(&shared),
            },
            (Bucket::Rows(v), false) => match Arc::try_unwrap(v) {
                Ok(owned) => self.push_right_owned(owned),
                Err(shared) => self.push_right_slice(&shared),
            },
        }
    }

    /// Cross-product output per matched key, in left first-seen key order,
    /// pre-sized exactly from per-key match counts; plus the probe count.
    pub fn finish(mut self) -> (Vec<Record>, u64) {
        if !self.sealed {
            self.seal_left();
        }
        let total: usize = self
            .lefts
            .iter()
            .zip(&self.rights)
            .map(|(ls, rs)| ls.len() * rs.len())
            .sum();
        let mut out = Vec::with_capacity(total);
        for ((k, ls), rs) in self.order.iter().zip(&self.lefts).zip(&self.rights) {
            for l in ls {
                for r in rs {
                    out.push(Record::new(
                        k.clone(),
                        Value::Pair(Box::new(l.clone()), Box::new(r.clone())),
                    ));
                }
            }
        }
        (out, self.probes)
    }
}

impl Default for JoinMerge {
    fn default() -> Self {
        Self::new()
    }
}

/// Inner hash join of two sides: emits `Record(k, Pair(l, r))` for every
/// pair of matching values, in left-side first-seen key order. Returns the
/// output and the number of probe operations.
pub fn merge_join(left: &[Record], right: &[Record]) -> (Vec<Record>, u64) {
    let mut m = JoinMerge::new();
    m.push_left_slice(left);
    m.seal_left();
    m.push_right_slice(right);
    m.finish()
}

/// Streaming co-group of two sides. Shares [`JoinMerge`]'s seal protocol:
/// right buckets pushed before [`CogroupMerge::seal_left`] are buffered and
/// replayed at seal time, preserving the "left keys first, then unseen
/// right keys" output order.
#[derive(Default)]
pub struct CogroupMerge {
    order: Vec<Key>,
    lefts: Vec<Vec<Value>>,
    rights: Vec<Vec<Value>>,
    index: HashMap<u64, Vec<u32>, IdentityBuild>,
    pending: Vec<Record>,
    sealed: bool,
}

impl CogroupMerge {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, key: &Key) -> Option<usize> {
        let h = key.stable_hash();
        self.index
            .get(&h)
            .and_then(|slots| slots.iter().find(|&&i| &self.order[i as usize] == key))
            .map(|&i| i as usize)
    }

    fn insert(&mut self, key: Key) -> usize {
        let h = key.stable_hash();
        let i = self.order.len();
        self.index.entry(h).or_default().push(i as u32);
        self.order.push(key);
        self.lefts.push(Vec::new());
        self.rights.push(Vec::new());
        i
    }

    /// Collect an owned left bucket; records are moved.
    pub fn push_left_owned(&mut self, records: Vec<Record>) {
        debug_assert!(!self.sealed, "left side pushed after seal_left");
        for r in records {
            let i = match self.slot(&r.key) {
                Some(i) => i,
                None => self.insert(r.key),
            };
            self.lefts[i].push(r.value);
        }
    }

    /// Collect a borrowed left bucket; records are cloned.
    pub fn push_left_slice(&mut self, records: &[Record]) {
        debug_assert!(!self.sealed, "left side pushed after seal_left");
        for r in records {
            let i = match self.slot(&r.key) {
                Some(i) => i,
                None => self.insert(r.key.clone()),
            };
            self.lefts[i].push(r.value.clone());
        }
    }

    fn right_record(&mut self, key: Key, value: Value) {
        let i = match self.slot(&key) {
            Some(i) => i,
            None => self.insert(key),
        };
        self.rights[i].push(value);
    }

    /// Declare the left side complete; buffered right buckets are replayed
    /// now, in the order they arrived.
    pub fn seal_left(&mut self) {
        self.sealed = true;
        let pending = std::mem::take(&mut self.pending);
        for r in pending {
            self.right_record(r.key, r.value);
        }
    }

    /// Collect an owned right bucket (buffered if the left side is not
    /// sealed yet); records are moved.
    pub fn push_right_owned(&mut self, records: Vec<Record>) {
        if !self.sealed {
            if self.pending.is_empty() {
                self.pending = records;
            } else {
                self.pending.extend(records);
            }
            return;
        }
        for r in records {
            self.right_record(r.key, r.value);
        }
    }

    /// Collect a borrowed right bucket; records are cloned.
    pub fn push_right_slice(&mut self, records: &[Record]) {
        if !self.sealed {
            self.pending.extend_from_slice(records);
            return;
        }
        for r in records {
            self.right_record(r.key.clone(), r.value.clone());
        }
    }

    /// Collect a columnar left bucket.
    pub fn push_left_batch(&mut self, batch: &ColumnBatch) {
        debug_assert!(!self.sealed, "left side pushed after seal_left");
        batch.for_each_record(|r| {
            let i = match self.slot(&r.key) {
                Some(i) => i,
                None => self.insert(r.key),
            };
            self.lefts[i].push(r.value);
        });
    }

    /// Collect a columnar right bucket (buffered if the left side is not
    /// sealed yet).
    pub fn push_right_batch(&mut self, batch: &ColumnBatch) {
        if !self.sealed {
            self.pending.reserve(batch.len());
            batch.for_each_record(|r| self.pending.push(r));
            return;
        }
        batch.for_each_record(|r| self.right_record(r.key, r.value));
    }

    /// Route a shipped bucket to the chosen side by value: a row bucket
    /// whose handle is the last one is moved in, a shared one is cloned
    /// from.
    pub fn push_bucket_owned(&mut self, bucket: Bucket, is_left: bool) {
        match (bucket, is_left) {
            (Bucket::Cols(b), true) => self.push_left_batch(&b),
            (Bucket::Cols(b), false) => self.push_right_batch(&b),
            (Bucket::Rows(v), true) => match Arc::try_unwrap(v) {
                Ok(owned) => self.push_left_owned(owned),
                Err(shared) => self.push_left_slice(&shared),
            },
            (Bucket::Rows(v), false) => match Arc::try_unwrap(v) {
                Ok(owned) => self.push_right_owned(owned),
                Err(shared) => self.push_right_slice(&shared),
            },
        }
    }

    /// One `Record(k, Pair(List(lefts), List(rights)))` per key present on
    /// either side, in first-seen key order (left side first), pre-sized
    /// from the key count.
    pub fn finish(mut self) -> Vec<Record> {
        if !self.sealed {
            self.seal_left();
        }
        let mut out = Vec::with_capacity(self.order.len());
        for ((k, l), r) in self.order.into_iter().zip(self.lefts).zip(self.rights) {
            out.push(Record::new(
                k,
                Value::Pair(
                    Box::new(Value::List(Arc::new(l))),
                    Box::new(Value::List(Arc::new(r))),
                ),
            ));
        }
        out
    }
}

/// Co-group of two sides: one record per key present on either side, value
/// `Pair(List(left values), List(right values))`, in first-seen key order
/// (left side first).
pub fn merge_cogroup(left: &[Record], right: &[Record]) -> Vec<Record> {
    let mut m = CogroupMerge::new();
    m.push_left_slice(left);
    m.seal_left();
    m.push_right_slice(right);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::HashPartitioner;

    fn rec(k: i64, v: i64) -> Record {
        Record::new(Key::Int(k), Value::Int(v))
    }

    fn sum() -> ReduceFn {
        Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
    }

    #[test]
    fn bucketize_routes_by_partitioner() {
        let p = HashPartitioner::new(4);
        let records: Vec<Record> = (0..100).map(|i| rec(i, i)).collect();
        let (tb, ops) = bucketize(&records, &p, None);
        assert_eq!(ops, 0);
        assert_eq!(tb.buckets.len(), 4);
        let total: usize = tb.buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 100, "no records lost");
        for (i, b) in tb.buckets.iter().enumerate() {
            for r in b.to_vec() {
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
        let (tb, ops) = bucketize(&records, &p, Some(&sum()));
        let total: usize = tb.buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 4, "one combined record per key");
        assert_eq!(ops, 96);
        // Each combined value is the count of its key's occurrences.
        for b in &tb.buckets {
            for r in b.to_vec() {
                assert_eq!(r.value.as_int(), 25);
            }
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
                    bucketize(slice, &p, Some(&sum())).0.total_bytes()
                })
                .sum()
        };
        assert!(volume(100) > volume(10));
        assert!(volume(10) > volume(2));
    }

    #[test]
    fn merge_reduce_folds_across_parts() {
        let a = vec![rec(1, 1), rec(2, 10)];
        let b = vec![rec(1, 2), rec(3, 100)];
        let (out, ops) = merge_reduce([a.as_slice(), b.as_slice()], &sum());
        assert_eq!(ops, 1);
        assert_eq!(out, vec![rec(1, 3), rec(2, 10), rec(3, 100)]);
    }

    #[test]
    fn merge_reduce_is_deterministic_first_seen_order() {
        let a = vec![rec(5, 1), rec(3, 1), rec(9, 1)];
        let (out, _) = merge_reduce([a.as_slice()], &sum());
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
    fn merge_group_collects_lists() {
        let a = vec![rec(1, 1), rec(1, 2), rec(2, 3)];
        let out = merge_group([a.as_slice()]);
        assert_eq!(out.len(), 2);
        match &out[0].value {
            Value::List(vs) => assert_eq!(vs.len(), 2),
            other => panic!("expected list, got {other:?}"),
        }
    }

    #[test]
    fn merge_concat_preserves_everything() {
        let a = vec![rec(1, 1)];
        let b = vec![rec(1, 2), rec(2, 3)];
        assert_eq!(merge_concat([a.as_slice(), b.as_slice()]).len(), 3);
    }

    #[test]
    fn join_emits_cross_product_per_key() {
        let left = vec![rec(1, 10), rec(1, 11), rec(2, 20)];
        let right = vec![rec(1, 100), rec(3, 300)];
        let (out, probes) = merge_join(&left, &right);
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
        assert!(merge_join(&left, &[]).0.is_empty());
        assert!(merge_join(&[], &left).0.is_empty());
    }

    #[test]
    fn cogroup_includes_unmatched_keys() {
        let left = vec![rec(1, 10)];
        let right = vec![rec(2, 20)];
        let out = merge_cogroup(&left, &right);
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
        let (tb, _) = bucketize(&[], &p, Some(&sum()));
        assert!(tb.buckets.iter().all(|b| b.is_empty()));
        assert_eq!(tb.total_bytes(), 0);
    }

    #[test]
    fn streaming_reduce_matches_batch_wrapper() {
        let a: Vec<Record> = (0..40).map(|i| rec(i % 7, i)).collect();
        let b: Vec<Record> = (0..40).map(|i| rec(i % 5, i * 3)).collect();
        let (batch, batch_ops) = merge_reduce([a.as_slice(), b.as_slice()], &sum());
        let mut m = ReduceMerge::new(sum());
        m.push_owned(a.clone());
        m.push_slice(&b);
        let (streamed, ops) = m.finish();
        assert_eq!(streamed, batch);
        assert_eq!(ops, batch_ops);
    }

    #[test]
    fn streaming_group_matches_batch_wrapper() {
        let a: Vec<Record> = (0..30).map(|i| rec(i % 4, i)).collect();
        let b: Vec<Record> = (0..30).map(|i| rec(i % 9, i)).collect();
        let batch = merge_group([a.as_slice(), b.as_slice()]);
        let mut m = GroupMerge::new();
        m.push_owned(a.clone());
        m.push_owned(b.clone());
        assert_eq!(m.finish(), batch);
    }

    #[test]
    fn streaming_concat_matches_batch_wrapper() {
        let a = vec![rec(1, 1), rec(2, 2)];
        let b = vec![rec(3, 3)];
        let batch = merge_concat([a.as_slice(), b.as_slice()]);
        let mut m = ConcatMerge::new();
        m.push_owned(a.clone());
        m.push_slice(&b);
        assert_eq!(m.finish(), batch);
    }

    #[test]
    fn streaming_join_buffers_rights_pushed_before_seal() {
        let left: Vec<Record> = (0..20).map(|i| rec(i % 6, i)).collect();
        let right: Vec<Record> = (0..15).map(|i| rec(i % 8, i + 100)).collect();
        let (batch, batch_probes) = merge_join(&left, &right);
        // Interleave: rights arrive before the left side is complete.
        let mut m = JoinMerge::new();
        m.push_right_owned(right[..7].to_vec());
        m.push_left_owned(left[..10].to_vec());
        m.push_right_owned(right[7..].to_vec());
        m.push_left_owned(left[10..].to_vec());
        m.seal_left();
        let (streamed, probes) = m.finish();
        assert_eq!(streamed, batch);
        assert_eq!(probes, batch_probes);
    }

    #[test]
    fn streaming_cogroup_matches_batch_wrapper() {
        let left: Vec<Record> = (0..12).map(|i| rec(i % 5, i)).collect();
        let right: Vec<Record> = (0..12).map(|i| rec(i % 7, i + 50)).collect();
        let batch = merge_cogroup(&left, &right);
        let mut m = CogroupMerge::new();
        m.push_right_owned(right[..5].to_vec());
        m.push_left_owned(left.clone());
        m.push_right_owned(right[5..].to_vec());
        m.seal_left();
        assert_eq!(m.finish(), batch);
    }

    #[test]
    fn bucketize_in_reuses_arena_without_behaviour_change() {
        let p = HashPartitioner::new(4);
        let mut arena = TaskArena::default();
        for round in 0..3 {
            for combine in [None, Some(sum())] {
                let records: Vec<Record> = (0..200).map(|i| rec((i + round) % 13, i)).collect();
                let fresh = bucketize(&records, &p, combine.as_ref());
                let reused = bucketize_in(&records, &p, combine.as_ref(), &mut arena);
                assert_eq!(reused.1, fresh.1);
                assert_eq!(reused.0.bytes, fresh.0.bytes);
                for (a, b) in reused.0.buckets.iter().zip(&fresh.0.buckets) {
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn columnar_bucketize_matches_row_path() {
        use crate::partitioner::RangePartitioner;
        let records: Vec<Record> = (0..500)
            .map(|i| rec(i % 37 - 18, i))
            .chain(std::iter::once(Record::new(Key::None, Value::Null)))
            .collect();
        let keys: Vec<Key> = records.iter().map(|r| r.key.clone()).collect();
        let hash = HashPartitioner::new(8);
        let range = RangePartitioner::from_sample(keys.iter(), 8, 9);
        for part in [&hash as &dyn Partitioner, &range] {
            let (row, row_ops) = bucketize(&records, part, None);
            let (col, col_ops) =
                bucketize_columnar(&records, part, &mut TaskArena::default()).expect("int keys");
            assert_eq!(col_ops, row_ops);
            assert_eq!(col.bytes, row.bytes, "byte tables must be path-independent");
            for (a, b) in col.buckets.iter().zip(&row.buckets) {
                assert_eq!(a, b, "bucket contents and order must match");
            }
        }
    }

    #[test]
    fn columnar_bucketize_bails_on_composite_keys() {
        let records = vec![Record::new(
            Key::Pair(Box::new(Key::Int(1)), Box::new(Key::Int(2))),
            Value::Int(1),
        )];
        let p = HashPartitioner::new(4);
        assert!(bucketize_columnar(&records, &p, &mut TaskArena::default()).is_none());
    }

    #[test]
    fn merge_accumulators_consume_columnar_buckets_identically() {
        let a: Vec<Record> = (0..60).map(|i| rec(i % 9, i)).collect();
        let b: Vec<Record> = (0..60).map(|i| rec(i % 6, i * 2)).collect();
        let batch_a = Bucket::Cols(ColumnBatch::from_records(&a));
        let batch_b = Bucket::Cols(ColumnBatch::from_records(&b));

        let (row_out, row_ops) = merge_reduce([a.as_slice(), b.as_slice()], &sum());
        let mut m = ReduceMerge::new(sum());
        m.push_bucket(&batch_a);
        m.push_bucket(&batch_b);
        let (col_out, col_ops) = m.finish();
        assert_eq!(col_out, row_out);
        assert_eq!(col_ops, row_ops);

        let mut g = GroupMerge::new();
        g.push_bucket_owned(batch_a.clone());
        g.push_bucket_owned(batch_b.clone());
        assert_eq!(g.finish(), merge_group([a.as_slice(), b.as_slice()]));

        let mut c = ConcatMerge::new();
        c.push_bucket_owned(batch_a.clone());
        c.push_bucket_owned(batch_b.clone());
        assert_eq!(c.finish(), merge_concat([a.as_slice(), b.as_slice()]));

        let (row_join, row_probes) = merge_join(&a, &b);
        let mut j = JoinMerge::new();
        j.push_bucket(&batch_b, false); // buffered pre-seal
        j.push_bucket(&batch_a, true);
        j.seal_left();
        let (col_join, col_probes) = j.finish();
        assert_eq!(col_join, row_join);
        assert_eq!(col_probes, row_probes);

        let mut cg = CogroupMerge::new();
        cg.push_bucket_owned(batch_a, true);
        cg.seal_left();
        cg.push_bucket_owned(batch_b, false);
        assert_eq!(cg.finish(), merge_cogroup(&a, &b));
    }

    #[test]
    fn owned_row_buckets_merge_like_slices_unique_or_shared() {
        let a: Vec<Record> = (0..60).map(|i| rec(i % 9, i)).collect();
        let b: Vec<Record> = (0..60).map(|i| rec(i % 6, i * 2)).collect();
        // `a` travels as the last handle on its rows (moved in); `b` as
        // one of two handles (cloned from).
        let shared_b = Arc::new(b.clone());
        let buckets = || {
            (
                Bucket::Rows(Arc::new(a.clone())),
                Bucket::Rows(Arc::clone(&shared_b)),
            )
        };

        let (ba, bb) = buckets();
        let mut m = ReduceMerge::new(sum());
        m.push_bucket_owned(ba);
        m.push_bucket_owned(bb);
        assert_eq!(
            m.finish(),
            merge_reduce([a.as_slice(), b.as_slice()], &sum())
        );

        let (ba, bb) = buckets();
        let mut g = GroupMerge::new();
        g.push_bucket_owned(ba);
        g.push_bucket_owned(bb);
        assert_eq!(g.finish(), merge_group([a.as_slice(), b.as_slice()]));

        let (ba, bb) = buckets();
        let mut c = ConcatMerge::new();
        c.push_bucket_owned(ba);
        c.push_bucket_owned(bb);
        assert_eq!(c.finish(), merge_concat([a.as_slice(), b.as_slice()]));

        let (ba, bb) = buckets();
        let mut j = JoinMerge::new();
        j.push_bucket_owned(ba, true);
        j.seal_left();
        j.push_bucket_owned(bb, false);
        assert_eq!(j.finish(), merge_join(&a, &b));

        let (ba, bb) = buckets();
        let mut cg = CogroupMerge::new();
        cg.push_bucket_owned(bb, true);
        cg.seal_left();
        cg.push_bucket_owned(ba, false);
        assert_eq!(cg.finish(), merge_cogroup(&b, &a));
        assert_eq!(*shared_b, b, "the shared handle's rows are untouched");
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
