//! Columnar zero-copy data plane: typed record batches.
//!
//! The row data model ([`Record`]) is ergonomic but taxes every hot loop
//! with an enum match and a 48-byte move per record. A [`ColumnBatch`]
//! stores the same rows as typed contiguous column buffers — `i64` keys,
//! `f64` scalars, fixed-stride `f64` vectors, dictionary-encoded strings —
//! each with an optional validity bitmap (a cleared bit reads back as
//! `Key::None` / `Value::Null`). Buffers are `Arc`-shared, so slicing a
//! batch is O(1) and ships no data: a shuffle write stores bucket *slices*
//! of one partition-ordered batch instead of cloned record vectors.
//!
//! Conversions are lossless in both directions: any column whose rows do
//! not fit a typed layout (composite `Key::Pair` keys, mixed variants,
//! ragged vectors) falls back to a row column — still `Arc`-sliceable,
//! just not vectorized. `to_records(from_records(rows)) == rows` for
//! every input, which the proptest suite pins.
//!
//! Everything observable is bit-identical to the row path:
//! * partition assignment reuses the stable FNV-1a key encoding
//!   ([`crate::record::int_key_hash`] / [`crate::record::str_key_hash`]),
//! * the stable counting-sort gather preserves intra-bucket record order
//!   exactly as the two-pass row bucketize does,
//! * [`ColumnBatch::encoded_size`] recomputes the shuffle byte tables
//!   from buffer lengths with the same per-variant formulas as
//!   [`Record::encoded_size`].

use crate::partitioner::Partitioner;
use crate::record::{str_key_hash, Key, Record, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Validity bitmap: bit `i` set means row `i` carries a real value; a
/// cleared bit reads back as `Key::None` / `Value::Null`. Indexed in
/// *buffer* coordinates (batch slices apply their row offset first).
#[derive(Debug)]
pub struct Validity {
    bits: Vec<u64>,
}

impl Validity {
    fn new(len: usize) -> Self {
        Validity {
            bits: vec![0u64; len.div_ceil(64)],
        }
    }

    fn set(&mut self, i: usize) {
        self.bits[i >> 6] |= 1u64 << (i & 63);
    }

    /// Whether row `i` is valid.
    pub fn get(&self, i: usize) -> bool {
        (self.bits[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Number of valid rows in `start..end` (popcount over whole words
    /// where possible — byte accounting never walks rows one by one).
    pub fn count_valid(&self, start: usize, end: usize) -> usize {
        if start >= end {
            return 0;
        }
        let (first_word, last_word) = (start >> 6, (end - 1) >> 6);
        if first_word == last_word {
            let mask = (!0u64 << (start & 63)) & (!0u64 >> (63 - ((end - 1) & 63)));
            return (self.bits[first_word] & mask).count_ones() as usize;
        }
        let mut n = (self.bits[first_word] & (!0u64 << (start & 63))).count_ones() as usize;
        for w in &self.bits[first_word + 1..last_word] {
            n += w.count_ones() as usize;
        }
        n += (self.bits[last_word] & (!0u64 >> (63 - ((end - 1) & 63)))).count_ones() as usize;
        n
    }
}

/// First-seen-order string dictionary shared by a dictionary-encoded
/// column. Per-entry encoded sizes and key hashes are precomputed once, so
/// byte accounting and partition assignment touch only the code buffer.
#[derive(Debug)]
pub struct StrDict {
    strings: Vec<Arc<str>>,
    /// `encoded_size` of a `Str` key/value per entry (`5 + len`).
    sizes: Vec<u64>,
    /// `Key::Str(entry).stable_hash()` per entry.
    key_hashes: Vec<u64>,
}

impl StrDict {
    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// Typed key column of a [`ColumnBatch`]. Indexed in buffer coordinates.
#[derive(Debug, Clone)]
pub enum KeyColumn {
    /// Every key is `Key::None` (pure datasets).
    AllNone,
    /// Integer keys; a cleared validity bit reads as `Key::None`.
    Int {
        /// Contiguous key buffer.
        data: Arc<Vec<i64>>,
        /// Present iff some rows are `Key::None`.
        validity: Option<Arc<Validity>>,
    },
    /// Dictionary-encoded string keys; a cleared validity bit reads as
    /// `Key::None` (its code slot is 0 and unused).
    Str {
        /// Shared dictionary.
        dict: Arc<StrDict>,
        /// Per-row dictionary codes.
        codes: Arc<Vec<u32>>,
        /// Present iff some rows are `Key::None`.
        validity: Option<Arc<Validity>>,
    },
    /// Row fallback for composite (`Key::Pair`) or mixed-variant keys.
    Rows(Arc<Vec<Key>>),
}

/// Typed value column of a [`ColumnBatch`]. Indexed in buffer coordinates.
#[derive(Debug, Clone)]
pub enum ValueColumn {
    /// Every value is `Value::Null`.
    AllNull,
    /// Integer scalars; a cleared validity bit reads as `Value::Null`.
    Int {
        /// Contiguous value buffer.
        data: Arc<Vec<i64>>,
        /// Present iff some rows are `Value::Null`.
        validity: Option<Arc<Validity>>,
    },
    /// Float scalars; a cleared validity bit reads as `Value::Null`.
    Float {
        /// Contiguous value buffer.
        data: Arc<Vec<f64>>,
        /// Present iff some rows are `Value::Null`.
        validity: Option<Arc<Validity>>,
    },
    /// Dictionary-encoded string values.
    Str {
        /// Shared dictionary.
        dict: Arc<StrDict>,
        /// Per-row dictionary codes.
        codes: Arc<Vec<u32>>,
        /// Present iff some rows are `Value::Null`.
        validity: Option<Arc<Validity>>,
    },
    /// Fixed-stride vectors: row `i` owns `data[i*stride..(i+1)*stride]`.
    /// Invalid rows (`Value::Null`) keep a zero-filled slot so the stride
    /// stays uniform.
    FixedVector {
        /// Elements per row.
        stride: usize,
        /// Contiguous `len * stride` buffer.
        data: Arc<Vec<f64>>,
        /// Present iff some rows are `Value::Null`.
        validity: Option<Arc<Validity>>,
    },
    /// Row fallback for mixed variants, ragged vectors, pairs, and lists.
    Rows(Arc<Vec<Value>>),
}

/// A batch of records in columnar form: one key column and one value
/// column over shared buffers, plus a row window (`offset..offset+len`).
/// Cloning or slicing a batch only bumps `Arc` refcounts.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    offset: usize,
    len: usize,
    keys: KeyColumn,
    values: ValueColumn,
}

// ---------------------------------------------------------------------
// Construction: Vec<Record> -> ColumnBatch
// ---------------------------------------------------------------------

/// Key-column layout chosen by the classify pass.
#[derive(PartialEq, Clone, Copy)]
enum KeyShape {
    AllNone,
    Int,
    Str,
    Rows,
}

/// Value-column layout chosen by the classify pass.
#[derive(PartialEq, Clone, Copy)]
enum ValueShape {
    AllNull,
    Int,
    Float,
    Str,
    /// Uniform-stride vectors.
    Vector(usize),
    Rows,
}

/// One fused pass over the records deciding both column layouts; stops
/// refining a column once it has degraded to the row fallback, and stops
/// altogether once both have — or, with `typed_only`, once either has:
/// that caller gives up on the batch, so the rest of the pass is wasted.
fn classify(records: &[Record], typed_only: bool) -> (KeyShape, ValueShape) {
    let mut ks = KeyShape::AllNone;
    let mut vs = ValueShape::AllNull;
    for r in records {
        if ks != KeyShape::Rows {
            ks = match (&r.key, ks) {
                (Key::None, s) => s,
                (Key::Int(_), KeyShape::AllNone | KeyShape::Int) => KeyShape::Int,
                (Key::Str(_), KeyShape::AllNone | KeyShape::Str) => KeyShape::Str,
                _ => KeyShape::Rows,
            };
        }
        if vs != ValueShape::Rows {
            vs = match (&r.value, vs) {
                (Value::Null, s) => s,
                (Value::Int(_), ValueShape::AllNull | ValueShape::Int) => ValueShape::Int,
                (Value::Float(_), ValueShape::AllNull | ValueShape::Float) => ValueShape::Float,
                (Value::Str(_), ValueShape::AllNull | ValueShape::Str) => ValueShape::Str,
                (Value::Vector(v), ValueShape::AllNull) => ValueShape::Vector(v.len()),
                (Value::Vector(v), ValueShape::Vector(s)) if v.len() == s => ValueShape::Vector(s),
                _ => ValueShape::Rows,
            };
        }
        let (k, v) = (ks == KeyShape::Rows, vs == ValueShape::Rows);
        if (k && v) || (typed_only && (k || v)) {
            break;
        }
    }
    (ks, vs)
}

/// Builds a dictionary over an iterator of optional strings, returning the
/// dictionary, per-row codes, and the validity bitmap (if any row was
/// absent). Dictionary order is first-seen, so it is deterministic for a
/// deterministic input order.
fn build_dict<'a>(
    rows: impl ExactSizeIterator<Item = Option<&'a Arc<str>>>,
) -> (Arc<StrDict>, Arc<Vec<u32>>, Option<Arc<Validity>>) {
    let n = rows.len();
    let mut lookup: HashMap<Arc<str>, u32> = HashMap::new();
    let mut strings = Vec::new();
    let mut codes = Vec::with_capacity(n);
    let mut validity = Validity::new(n);
    let mut any_none = false;
    for (i, row) in rows.enumerate() {
        match row {
            Some(s) => {
                validity.set(i);
                let code = *lookup.entry(Arc::clone(s)).or_insert_with(|| {
                    strings.push(Arc::clone(s));
                    (strings.len() - 1) as u32
                });
                codes.push(code);
            }
            None => {
                any_none = true;
                codes.push(0);
            }
        }
    }
    let sizes = strings.iter().map(|s| 5 + s.len() as u64).collect();
    let key_hashes = strings.iter().map(|s| str_key_hash(s)).collect();
    let dict = Arc::new(StrDict {
        strings,
        sizes,
        key_hashes,
    });
    (dict, Arc::new(codes), any_none.then(|| Arc::new(validity)))
}

fn build_keys(records: &[Record], shape: KeyShape) -> KeyColumn {
    match shape {
        KeyShape::AllNone => KeyColumn::AllNone,
        KeyShape::Int => {
            let mut data = Vec::with_capacity(records.len());
            let mut validity = Validity::new(records.len());
            let mut any_none = false;
            for (i, r) in records.iter().enumerate() {
                match r.key {
                    Key::Int(v) => {
                        validity.set(i);
                        data.push(v);
                    }
                    _ => {
                        any_none = true;
                        data.push(0);
                    }
                }
            }
            KeyColumn::Int {
                data: Arc::new(data),
                validity: any_none.then(|| Arc::new(validity)),
            }
        }
        KeyShape::Str => {
            let (dict, codes, validity) = build_dict(records.iter().map(|r| match &r.key {
                Key::Str(s) => Some(s),
                _ => None,
            }));
            KeyColumn::Str {
                dict,
                codes,
                validity,
            }
        }
        KeyShape::Rows => {
            KeyColumn::Rows(Arc::new(records.iter().map(|r| r.key.clone()).collect()))
        }
    }
}

fn build_values(records: &[Record], shape: ValueShape) -> ValueColumn {
    match shape {
        ValueShape::AllNull => ValueColumn::AllNull,
        ValueShape::Int => {
            let mut data = Vec::with_capacity(records.len());
            let mut validity = Validity::new(records.len());
            let mut any_null = false;
            for (i, r) in records.iter().enumerate() {
                match r.value {
                    Value::Int(v) => {
                        validity.set(i);
                        data.push(v);
                    }
                    _ => {
                        any_null = true;
                        data.push(0);
                    }
                }
            }
            ValueColumn::Int {
                data: Arc::new(data),
                validity: any_null.then(|| Arc::new(validity)),
            }
        }
        ValueShape::Float => {
            let mut data = Vec::with_capacity(records.len());
            let mut validity = Validity::new(records.len());
            let mut any_null = false;
            for (i, r) in records.iter().enumerate() {
                match r.value {
                    Value::Float(v) => {
                        validity.set(i);
                        data.push(v);
                    }
                    _ => {
                        any_null = true;
                        data.push(0.0);
                    }
                }
            }
            ValueColumn::Float {
                data: Arc::new(data),
                validity: any_null.then(|| Arc::new(validity)),
            }
        }
        ValueShape::Str => {
            let (dict, codes, validity) = build_dict(records.iter().map(|r| match &r.value {
                Value::Str(s) => Some(s),
                _ => None,
            }));
            ValueColumn::Str {
                dict,
                codes,
                validity,
            }
        }
        ValueShape::Vector(stride) => {
            let mut data = Vec::with_capacity(records.len() * stride);
            let mut validity = Validity::new(records.len());
            let mut any_null = false;
            for (i, r) in records.iter().enumerate() {
                match &r.value {
                    Value::Vector(v) => {
                        validity.set(i);
                        data.extend_from_slice(v);
                    }
                    _ => {
                        any_null = true;
                        data.resize(data.len() + stride, 0.0);
                    }
                }
            }
            ValueColumn::FixedVector {
                stride,
                data: Arc::new(data),
                validity: any_null.then(|| Arc::new(validity)),
            }
        }
        ValueShape::Rows => {
            ValueColumn::Rows(Arc::new(records.iter().map(|r| r.value.clone()).collect()))
        }
    }
}

impl ColumnBatch {
    /// Converts rows to columns. Always succeeds: columns whose rows do
    /// not fit a typed layout fall back to row columns, so
    /// [`ColumnBatch::to_records`] round-trips every input losslessly.
    pub fn from_records(records: &[Record]) -> ColumnBatch {
        let (ks, vs) = classify(records, false);
        ColumnBatch {
            offset: 0,
            len: records.len(),
            keys: build_keys(records, ks),
            values: build_values(records, vs),
        }
    }

    /// Converts rows to columns only when both columns fit a typed layout
    /// — the shuffle write's entry point. Returns `None` on composite
    /// keys, mixed variants, or boxed payloads, where the row path (which
    /// can *move* owned records) is cheaper than deep-cloning into
    /// fallback row columns. One classify pass, shared with construction,
    /// that ends at the first record no typed layout can hold.
    pub fn from_records_typed(records: &[Record]) -> Option<ColumnBatch> {
        let (ks, vs) = classify(records, true);
        if ks == KeyShape::Rows || vs == ValueShape::Rows {
            return None;
        }
        Some(ColumnBatch {
            offset: 0,
            len: records.len(),
            keys: build_keys(records, ks),
            values: build_values(records, vs),
        })
    }

    /// Number of rows in this batch's window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key column (buffer-indexed; apply [`ColumnBatch::offset`]).
    pub fn keys(&self) -> &KeyColumn {
        &self.keys
    }

    /// The value column (buffer-indexed).
    pub fn values(&self) -> &ValueColumn {
        &self.values
    }

    /// First row of this window in buffer coordinates.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Zero-copy sub-window: shares every buffer, adjusts the row window.
    pub fn slice(&self, start: usize, len: usize) -> ColumnBatch {
        assert!(start + len <= self.len, "slice out of bounds");
        ColumnBatch {
            offset: self.offset + start,
            len,
            keys: self.keys.clone(),
            values: self.values.clone(),
        }
    }

    /// Whether the key column has a typed (vectorizable) layout.
    pub fn has_columnar_keys(&self) -> bool {
        !matches!(self.keys, KeyColumn::Rows(_))
    }

    /// Reconstructs the key of window row `i`.
    pub fn key_at(&self, i: usize) -> Key {
        let j = self.offset + i;
        match &self.keys {
            KeyColumn::AllNone => Key::None,
            KeyColumn::Int { data, validity } => match validity {
                Some(v) if !v.get(j) => Key::None,
                _ => Key::Int(data[j]),
            },
            KeyColumn::Str {
                dict,
                codes,
                validity,
            } => match validity {
                Some(v) if !v.get(j) => Key::None,
                _ => Key::Str(Arc::clone(&dict.strings[codes[j] as usize])),
            },
            KeyColumn::Rows(rows) => rows[j].clone(),
        }
    }

    /// Reconstructs the value of window row `i`.
    pub fn value_at(&self, i: usize) -> Value {
        let j = self.offset + i;
        match &self.values {
            ValueColumn::AllNull => Value::Null,
            ValueColumn::Int { data, validity } => match validity {
                Some(v) if !v.get(j) => Value::Null,
                _ => Value::Int(data[j]),
            },
            ValueColumn::Float { data, validity } => match validity {
                Some(v) if !v.get(j) => Value::Null,
                _ => Value::Float(data[j]),
            },
            ValueColumn::Str {
                dict,
                codes,
                validity,
            } => match validity {
                Some(v) if !v.get(j) => Value::Null,
                _ => Value::Str(Arc::clone(&dict.strings[codes[j] as usize])),
            },
            ValueColumn::FixedVector {
                stride,
                data,
                validity,
            } => match validity {
                Some(v) if !v.get(j) => Value::Null,
                _ => Value::Vector(Arc::from(&data[j * stride..(j + 1) * stride])),
            },
            ValueColumn::Rows(rows) => rows[j].clone(),
        }
    }

    /// Reconstructs window row `i` as a [`Record`].
    pub fn record_at(&self, i: usize) -> Record {
        Record::new(self.key_at(i), self.value_at(i))
    }

    /// Reconstructed rows in window order (the merge accumulators consume
    /// shipped slices through this without an intermediate `Vec`).
    pub fn records(&self) -> impl ExactSizeIterator<Item = Record> + '_ {
        (0..self.len).map(|i| self.record_at(i))
    }

    /// Materializes the whole window back into rows.
    pub fn to_records(&self) -> Vec<Record> {
        self.records().collect()
    }

    /// Serialized size of the window, computed from buffer lengths (and
    /// validity popcounts) rather than per-row enum walks. Equals
    /// `batch_size(&self.to_records())` exactly — memman budgets and
    /// shuffle byte tables cannot tell the paths apart.
    pub fn encoded_size(&self) -> u64 {
        let (start, end) = (self.offset, self.offset + self.len);
        2 * self.len as u64 + self.keys_bytes(start, end) + self.values_bytes(start, end)
    }

    fn keys_bytes(&self, start: usize, end: usize) -> u64 {
        let n = (end - start) as u64;
        match &self.keys {
            KeyColumn::AllNone => n,
            KeyColumn::Int { validity, .. } => match validity {
                None => 9 * n,
                Some(v) => {
                    let valid = v.count_valid(start, end) as u64;
                    9 * valid + (n - valid)
                }
            },
            KeyColumn::Str {
                dict,
                codes,
                validity,
            } => match validity {
                None => codes[start..end]
                    .iter()
                    .map(|&c| dict.sizes[c as usize])
                    .sum(),
                Some(v) => (start..end)
                    .map(|j| {
                        if v.get(j) {
                            dict.sizes[codes[j] as usize]
                        } else {
                            1
                        }
                    })
                    .sum(),
            },
            KeyColumn::Rows(rows) => rows[start..end].iter().map(Key::encoded_size).sum(),
        }
    }

    fn values_bytes(&self, start: usize, end: usize) -> u64 {
        let n = (end - start) as u64;
        match &self.values {
            ValueColumn::AllNull => n,
            ValueColumn::Int { validity, .. } | ValueColumn::Float { validity, .. } => {
                match validity {
                    None => 9 * n,
                    Some(v) => {
                        let valid = v.count_valid(start, end) as u64;
                        9 * valid + (n - valid)
                    }
                }
            }
            ValueColumn::Str {
                dict,
                codes,
                validity,
            } => match validity {
                None => codes[start..end]
                    .iter()
                    .map(|&c| dict.sizes[c as usize])
                    .sum(),
                Some(v) => (start..end)
                    .map(|j| {
                        if v.get(j) {
                            dict.sizes[codes[j] as usize]
                        } else {
                            1
                        }
                    })
                    .sum(),
            },
            ValueColumn::FixedVector {
                stride, validity, ..
            } => {
                let per_row = 9 + 8 * *stride as u64;
                match validity {
                    None => per_row * n,
                    Some(v) => {
                        let valid = v.count_valid(start, end) as u64;
                        per_row * valid + (n - valid)
                    }
                }
            }
            ValueColumn::Rows(rows) => rows[start..end].iter().map(Value::encoded_size).sum(),
        }
    }

    // -----------------------------------------------------------------
    // Partition assignment: one pass over the key column
    // -----------------------------------------------------------------

    /// Appends the partition id of every window row to `out` with a single
    /// pass over the key column. Bit-identical to calling
    /// `partitioner.partition(&key)` on each reconstructed key: integer
    /// keys go through the partitioner's vectorized buffer kernel,
    /// dictionary keys are assigned once per *distinct* string, and rows
    /// that a validity bit marks absent get `Key::None`'s partition.
    pub fn partition_assignment(&self, partitioner: &dyn Partitioner, out: &mut Vec<u32>) {
        let (start, end) = (self.offset, self.offset + self.len);
        match &self.keys {
            KeyColumn::AllNone => {
                let id = partitioner.partition(&Key::None) as u32;
                out.resize(out.len() + self.len, id);
            }
            KeyColumn::Int { data, validity } => {
                let from = out.len();
                if !partitioner.partition_int_keys(&data[start..end], out) {
                    out.extend(
                        data[start..end]
                            .iter()
                            .map(|&k| partitioner.partition(&Key::Int(k)) as u32),
                    );
                }
                if let Some(v) = validity {
                    let none_id = partitioner.partition(&Key::None) as u32;
                    for (i, j) in (start..end).enumerate() {
                        if !v.get(j) {
                            out[from + i] = none_id;
                        }
                    }
                }
            }
            KeyColumn::Str {
                dict,
                codes,
                validity,
            } => {
                // Assign each distinct string once, then map codes.
                let table: Vec<u32> = dict
                    .strings
                    .iter()
                    .zip(&dict.key_hashes)
                    .map(|(s, &h)| partitioner.partition_hashed(&Key::Str(Arc::clone(s)), h) as u32)
                    .collect();
                match validity {
                    None => out.extend(codes[start..end].iter().map(|&c| table[c as usize])),
                    Some(v) => {
                        let none_id = partitioner.partition(&Key::None) as u32;
                        out.extend((start..end).map(|j| {
                            if v.get(j) {
                                table[codes[j] as usize]
                            } else {
                                none_id
                            }
                        }));
                    }
                }
            }
            KeyColumn::Rows(rows) => {
                out.extend(
                    rows[start..end]
                        .iter()
                        .map(|k| partitioner.partition(k) as u32),
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // Gather: stable counting sort into partition order
    // -----------------------------------------------------------------

    /// Reorders the window by `assignment` (one partition id per row,
    /// each `< p`) with a stable counting sort, so bucket `b` becomes the
    /// contiguous row range `offsets[b]..offsets[b+1]` of the returned
    /// batch. Intra-bucket record order matches the row bucketize's
    /// two-pass copy exactly. Column buffers are gathered with typed
    /// moves (`i64`/`f64`/code copies); only row-fallback columns clone
    /// enum values.
    pub fn gather(&self, assignment: &[u32], p: usize) -> (ColumnBatch, Vec<usize>) {
        assert_eq!(assignment.len(), self.len, "one partition id per row");
        let mut counts = vec![0usize; p];
        for &a in assignment {
            counts[a as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(p + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        // Destination row of every source row, in one pass.
        let mut cursor: Vec<usize> = offsets[..p].to_vec();
        let mut dst: Vec<u32> = Vec::with_capacity(self.len);
        for &a in assignment {
            let d = cursor[a as usize];
            cursor[a as usize] = d + 1;
            dst.push(d as u32);
        }

        let gather_validity = |validity: &Option<Arc<Validity>>| -> Option<Arc<Validity>> {
            validity.as_ref().map(|v| {
                let mut out = Validity::new(self.len);
                for (i, &d) in dst.iter().enumerate() {
                    if v.get(self.offset + i) {
                        out.set(d as usize);
                    }
                }
                Arc::new(out)
            })
        };

        let keys = match &self.keys {
            KeyColumn::AllNone => KeyColumn::AllNone,
            KeyColumn::Int { data, validity } => {
                let mut out = vec![0i64; self.len];
                for (i, &d) in dst.iter().enumerate() {
                    out[d as usize] = data[self.offset + i];
                }
                KeyColumn::Int {
                    data: Arc::new(out),
                    validity: gather_validity(validity),
                }
            }
            KeyColumn::Str {
                dict,
                codes,
                validity,
            } => {
                let mut out = vec![0u32; self.len];
                for (i, &d) in dst.iter().enumerate() {
                    out[d as usize] = codes[self.offset + i];
                }
                KeyColumn::Str {
                    dict: Arc::clone(dict),
                    codes: Arc::new(out),
                    validity: gather_validity(validity),
                }
            }
            KeyColumn::Rows(rows) => {
                let mut out = vec![Key::None; self.len];
                for (i, &d) in dst.iter().enumerate() {
                    out[d as usize] = rows[self.offset + i].clone();
                }
                KeyColumn::Rows(Arc::new(out))
            }
        };

        let values = match &self.values {
            ValueColumn::AllNull => ValueColumn::AllNull,
            ValueColumn::Int { data, validity } => {
                let mut out = vec![0i64; self.len];
                for (i, &d) in dst.iter().enumerate() {
                    out[d as usize] = data[self.offset + i];
                }
                ValueColumn::Int {
                    data: Arc::new(out),
                    validity: gather_validity(validity),
                }
            }
            ValueColumn::Float { data, validity } => {
                let mut out = vec![0f64; self.len];
                for (i, &d) in dst.iter().enumerate() {
                    out[d as usize] = data[self.offset + i];
                }
                ValueColumn::Float {
                    data: Arc::new(out),
                    validity: gather_validity(validity),
                }
            }
            ValueColumn::Str {
                dict,
                codes,
                validity,
            } => {
                let mut out = vec![0u32; self.len];
                for (i, &d) in dst.iter().enumerate() {
                    out[d as usize] = codes[self.offset + i];
                }
                ValueColumn::Str {
                    dict: Arc::clone(dict),
                    codes: Arc::new(out),
                    validity: gather_validity(validity),
                }
            }
            ValueColumn::FixedVector {
                stride,
                data,
                validity,
            } => {
                let s = *stride;
                let mut out = vec![0f64; self.len * s];
                for (i, &d) in dst.iter().enumerate() {
                    let src = (self.offset + i) * s;
                    out[d as usize * s..(d as usize + 1) * s].copy_from_slice(&data[src..src + s]);
                }
                ValueColumn::FixedVector {
                    stride: s,
                    data: Arc::new(out),
                    validity: gather_validity(validity),
                }
            }
            ValueColumn::Rows(rows) => {
                let mut out = vec![Value::Null; self.len];
                for (i, &d) in dst.iter().enumerate() {
                    out[d as usize] = rows[self.offset + i].clone();
                }
                ValueColumn::Rows(Arc::new(out))
            }
        };

        (
            ColumnBatch {
                offset: 0,
                len: self.len,
                keys,
                values,
            },
            offsets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{HashPartitioner, RangePartitioner};
    use crate::record::batch_size;

    fn mixed_rows() -> Vec<Record> {
        vec![
            Record::new(Key::Int(3), Value::Int(30)),
            Record::new(Key::None, Value::Null),
            Record::new(Key::Int(-7), Value::Int(70)),
            Record::new(Key::Int(3), Value::Int(31)),
        ]
    }

    #[test]
    fn int_round_trip_with_none_and_null() {
        let rows = mixed_rows();
        let b = ColumnBatch::from_records(&rows);
        assert!(b.has_columnar_keys());
        assert_eq!(b.to_records(), rows);
        assert_eq!(b.encoded_size(), batch_size(&rows));
    }

    #[test]
    fn str_dict_round_trip() {
        let rows = vec![
            Record::new(Key::str("a"), Value::str("x")),
            Record::new(Key::str("bb"), Value::str("x")),
            Record::new(Key::str("a"), Value::Null),
            Record::new(Key::None, Value::str("yyy")),
        ];
        let b = ColumnBatch::from_records(&rows);
        assert!(b.has_columnar_keys());
        if let KeyColumn::Str { dict, .. } = b.keys() {
            assert_eq!(dict.len(), 2, "dictionary dedups repeated keys");
        } else {
            panic!("expected dictionary key column");
        }
        assert_eq!(b.to_records(), rows);
        assert_eq!(b.encoded_size(), batch_size(&rows));
    }

    #[test]
    fn vector_and_fallback_round_trip() {
        let fixed = vec![
            Record::new(Key::Int(1), Value::vector(vec![1.0, 2.0])),
            Record::new(Key::Int(2), Value::Null),
            Record::new(Key::Int(3), Value::vector(vec![5.0, 6.0])),
        ];
        let b = ColumnBatch::from_records(&fixed);
        assert!(matches!(
            b.values(),
            ValueColumn::FixedVector { stride: 2, .. }
        ));
        assert_eq!(b.to_records(), fixed);
        assert_eq!(b.encoded_size(), batch_size(&fixed));

        // Ragged vectors and composite keys fall back to row columns but
        // still round-trip.
        let ragged = vec![
            Record::new(
                Key::Pair(Box::new(Key::Int(1)), Box::new(Key::str("t"))),
                Value::vector(vec![1.0]),
            ),
            Record::new(Key::Int(2), Value::vector(vec![1.0, 2.0])),
            Record::new(
                Key::Int(9),
                Value::List(Arc::new(vec![Value::Int(1), Value::Null])),
            ),
        ];
        let b = ColumnBatch::from_records(&ragged);
        assert!(!b.has_columnar_keys());
        assert_eq!(b.to_records(), ragged);
        assert_eq!(b.encoded_size(), batch_size(&ragged));
    }

    #[test]
    fn typed_only_classification_stops_at_the_first_untyped_column() {
        let pair_key = Key::Pair(Box::new(Key::Int(1)), Box::new(Key::Int(2)));
        let pair_value = Value::Pair(Box::new(Value::Int(1)), Box::new(Value::Int(2)));
        let rows = vec![
            Record::new(Key::Int(1), pair_value),
            Record::new(pair_key, Value::Int(3)),
        ];
        // The first record already rules a typed batch out, so the second
        // record's composite key is never looked at.
        assert!(classify(&rows, true) == (KeyShape::Int, ValueShape::Rows));
        assert!(classify(&rows, false) == (KeyShape::Rows, ValueShape::Rows));
        assert!(ColumnBatch::from_records_typed(&rows).is_none());
        assert_eq!(ColumnBatch::from_records(&rows).to_records(), rows);
    }

    #[test]
    fn slicing_is_zero_copy_and_windowed() {
        let rows: Vec<Record> = (0..100)
            .map(|i| Record::new(Key::Int(i), Value::Int(i * 2)))
            .collect();
        let b = ColumnBatch::from_records(&rows);
        let s = b.slice(10, 30);
        assert_eq!(s.len(), 30);
        assert_eq!(s.to_records(), rows[10..40]);
        assert_eq!(s.encoded_size(), batch_size(&rows[10..40]));
        let ss = s.slice(5, 10);
        assert_eq!(ss.to_records(), rows[15..25]);
    }

    #[test]
    fn assignment_matches_row_path_hash_and_range() {
        let rows: Vec<Record> = (0..500)
            .map(|i| Record::new(Key::Int(i * 7 - 250), Value::Int(i)))
            .chain(std::iter::once(Record::new(Key::None, Value::Int(-1))))
            .collect();
        let b = ColumnBatch::from_records(&rows);
        let keys: Vec<Key> = rows.iter().map(|r| r.key.clone()).collect();
        let hash = HashPartitioner::new(13);
        let range = RangePartitioner::from_sample(keys.iter(), 8, 42);
        for part in [&hash as &dyn Partitioner, &range] {
            let mut got = Vec::new();
            b.partition_assignment(part, &mut got);
            let want: Vec<u32> = keys.iter().map(|k| part.partition(k) as u32).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn assignment_matches_row_path_for_dict_keys() {
        let names = ["alpha", "beta", "gamma", "delta"];
        let rows: Vec<Record> = (0..200)
            .map(|i| Record::new(Key::str(names[i % 4]), Value::Int(i as i64)))
            .collect();
        let b = ColumnBatch::from_records(&rows);
        let part = HashPartitioner::new(7);
        let mut got = Vec::new();
        b.partition_assignment(&part, &mut got);
        let want: Vec<u32> = rows.iter().map(|r| part.partition(&r.key) as u32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn gather_is_stable_within_buckets() {
        let rows: Vec<Record> = (0..100)
            .map(|i| Record::new(Key::Int(i % 5), Value::Int(i)))
            .collect();
        let b = ColumnBatch::from_records(&rows);
        let part = HashPartitioner::new(5);
        let mut assign = Vec::new();
        b.partition_assignment(&part, &mut assign);
        let (g, offsets) = b.gather(&assign, 5);
        for p in 0..5 {
            let bucket = g
                .slice(offsets[p], offsets[p + 1] - offsets[p])
                .to_records();
            let want: Vec<Record> = rows
                .iter()
                .filter(|r| part.partition(&r.key) == p)
                .cloned()
                .collect();
            assert_eq!(bucket, want, "bucket {p} must match row-path order");
        }
    }

    #[test]
    fn empty_batch_round_trips() {
        let b = ColumnBatch::from_records(&[]);
        assert!(b.is_empty());
        assert_eq!(b.to_records(), Vec::<Record>::new());
        assert_eq!(b.encoded_size(), 0);
        let mut assign = Vec::new();
        b.partition_assignment(&HashPartitioner::new(4), &mut assign);
        assert!(assign.is_empty());
    }
}
