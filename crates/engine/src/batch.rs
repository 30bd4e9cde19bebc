//! Kept only for the frozen `benchmark/` until ROADMAP item 4a: the typed
//! column encoder its `engine.batch.build_ns_per_rec` drive times. Nothing
//! in the engine reads a [`ColumnBatch`] — the shuffle writes rows.
//!
//! [`ColumnBatch::from_records_typed`] stores a record set as typed
//! contiguous column buffers — `i64` keys, `f64` scalars, fixed-stride
//! `f64` vectors, dictionary-encoded strings — each with an optional
//! validity bitmap marking the rows that carry `Key::None` /
//! `Value::Null`, or gives up at the first record no typed layout holds.

use crate::record::{Key, Record, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Validity bitmap: bit `i` set means row `i` carries a real value.
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
}

/// First-seen-order string dictionary shared by a dictionary-encoded
/// column.
#[derive(Debug)]
pub struct StrDict {
    strings: Vec<Arc<str>>,
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

/// Typed key column of a [`ColumnBatch`].
#[derive(Debug, Clone)]
pub enum KeyColumn {
    /// Every key is `Key::None` (pure datasets).
    AllNone,
    /// Integer keys; a cleared validity bit marks `Key::None`.
    Int {
        /// Contiguous key buffer.
        data: Arc<Vec<i64>>,
        /// Present iff some rows are `Key::None`.
        validity: Option<Arc<Validity>>,
    },
    /// Dictionary-encoded string keys; a cleared validity bit marks
    /// `Key::None` (its code slot is 0 and unused).
    Str {
        /// Shared dictionary.
        dict: Arc<StrDict>,
        /// Per-row dictionary codes.
        codes: Arc<Vec<u32>>,
        /// Present iff some rows are `Key::None`.
        validity: Option<Arc<Validity>>,
    },
}

/// Typed value column of a [`ColumnBatch`].
#[derive(Debug, Clone)]
pub enum ValueColumn {
    /// Every value is `Value::Null`.
    AllNull,
    /// Integer scalars; a cleared validity bit marks `Value::Null`.
    Int {
        /// Contiguous value buffer.
        data: Arc<Vec<i64>>,
        /// Present iff some rows are `Value::Null`.
        validity: Option<Arc<Validity>>,
    },
    /// Float scalars; a cleared validity bit marks `Value::Null`.
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
}

/// A batch of records in columnar form: one key column and one value
/// column over shared buffers.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    len: usize,
    keys: KeyColumn,
    values: ValueColumn,
}

/// Key-column layout chosen by the classify pass.
#[derive(Debug, PartialEq, Clone, Copy)]
enum KeyShape {
    AllNone,
    Int,
    Str,
}

/// Value-column layout chosen by the classify pass.
#[derive(Debug, PartialEq, Clone, Copy)]
enum ValueShape {
    AllNull,
    Int,
    Float,
    Str,
    /// Uniform-stride vectors.
    Vector(usize),
}

/// One fused pass over the records deciding both column layouts; `None`
/// for a column no typed layout holds. The pass ends at the first record
/// that leaves either column without one, so the other column's shape is
/// what the records up to there make it.
fn classify(records: &[Record]) -> (Option<KeyShape>, Option<ValueShape>) {
    let mut ks = Some(KeyShape::AllNone);
    let mut vs = Some(ValueShape::AllNull);
    for r in records {
        let (Some(k), Some(v)) = (ks, vs) else {
            break;
        };
        ks = match (&r.key, k) {
            (Key::None, s) => Some(s),
            (Key::Int(_), KeyShape::AllNone | KeyShape::Int) => Some(KeyShape::Int),
            (Key::Str(_), KeyShape::AllNone | KeyShape::Str) => Some(KeyShape::Str),
            _ => None,
        };
        vs = match (&r.value, v) {
            (Value::Null, s) => Some(s),
            (Value::Int(_), ValueShape::AllNull | ValueShape::Int) => Some(ValueShape::Int),
            (Value::Float(_), ValueShape::AllNull | ValueShape::Float) => Some(ValueShape::Float),
            (Value::Str(_), ValueShape::AllNull | ValueShape::Str) => Some(ValueShape::Str),
            (Value::Vector(x), ValueShape::AllNull) => Some(ValueShape::Vector(x.len())),
            (Value::Vector(x), ValueShape::Vector(s)) if x.len() == s => Some(v),
            _ => None,
        };
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
    let dict = Arc::new(StrDict { strings });
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
    }
}

impl ColumnBatch {
    /// Converts rows to columns when both columns fit a typed layout;
    /// `None` on composite keys, mixed variants, or boxed payloads. One
    /// classify pass, which ends at the first record no typed layout can
    /// hold.
    pub fn from_records_typed(records: &[Record]) -> Option<ColumnBatch> {
        let (Some(ks), Some(vs)) = classify(records) else {
            return None;
        };
        Some(ColumnBatch {
            len: records.len(),
            keys: build_keys(records, ks),
            values: build_values(records, vs),
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key column.
    pub fn keys(&self) -> &KeyColumn {
        &self.keys
    }

    /// The value column.
    pub fn values(&self) -> &ValueColumn {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(classify(&rows), (Some(KeyShape::Int), None));
        assert!(ColumnBatch::from_records_typed(&rows).is_none());
    }
}
