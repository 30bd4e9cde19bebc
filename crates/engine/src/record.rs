//! The engine's dynamic data model.
//!
//! Spark RDDs are generic; a reproduction engine gets most of the leverage
//! from a small dynamic `(Key, Value)` record type instead — it keeps the
//! scheduler, shuffle, and partitioners monomorphic while still expressing
//! every workload in the paper (points for KMeans/PCA, keyed rows for SQL).
//!
//! Keys are hashable *and* ordered so both the hash partitioner and the
//! range partitioner work over them. Hashing is FNV-1a over a stable byte
//! encoding — deliberately not `std`'s randomized SipHash, so partition
//! assignment (and therefore every downstream measurement) is deterministic
//! across runs.

use std::cmp::Ordering;
use std::sync::Arc;

/// A record key. Ordered and hashable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// Keyless records (pure datasets like point clouds).
    None,
    /// Integer key.
    Int(i64),
    /// String key.
    Str(Arc<str>),
    /// Composite key (e.g. (table, id) pairs).
    Pair(Box<Key>, Box<Key>),
}

impl Key {
    /// Stable 64-bit FNV-1a hash of the key's byte encoding.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv::new();
        self.feed(&mut h);
        h.finish()
    }

    /// Streams this key's byte encoding into a caller-owned [`Fnv`], so
    /// composite hashes (signatures) share one hasher instead of
    /// re-implementing the encoding.
    pub fn feed(&self, h: &mut Fnv) {
        match self {
            Key::None => h.write_u8(0),
            Key::Int(i) => {
                h.write_u8(1);
                h.write(&i.to_le_bytes());
            }
            Key::Str(s) => {
                h.write_u8(2);
                h.write(s.as_bytes());
            }
            Key::Pair(a, b) => {
                h.write_u8(3);
                a.feed(h);
                b.feed(h);
            }
        }
    }

    /// Approximate serialized size in bytes (for shuffle accounting).
    /// Only a composite key recurses, out of line.
    #[inline]
    pub fn encoded_size(&self) -> u64 {
        match self {
            Key::None => 1,
            Key::Int(_) => 9,
            Key::Str(s) => 5 + s.len() as u64,
            Key::Pair(a, b) => Key::pair_size(a, b),
        }
    }

    #[inline(never)]
    fn pair_size(a: &Key, b: &Key) -> u64 {
        1 + a.encoded_size() + b.encoded_size()
    }

    /// Convenience constructor for string keys.
    pub fn str(s: &str) -> Key {
        Key::Str(Arc::from(s))
    }
}

/// A record value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / unit value.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String payload.
    Str(Arc<str>),
    /// Dense numeric vector (points, partial sums, covariance rows): one
    /// allocation, header and elements together.
    Vector(Arc<[f64]>),
    /// Pair of values (e.g. (sum-vector, count) accumulators).
    Pair(Box<Value>, Box<Value>),
    /// List of values (co-group buckets, collected groups).
    List(Arc<Vec<Value>>),
}

impl Value {
    /// Approximate serialized size in bytes (for shuffle accounting).
    ///
    /// Encoding convention (shared with [`Key::encoded_size`]): every
    /// variant spends 1 tag byte and each nested element re-counts its own
    /// tag, exactly as `Pair` counts its two children. Fixed-arity
    /// containers (`Pair`) carry no length word; variable-length ones do
    /// (`Str` a u32, `Vector`/`List` a u64). Shuffle byte tables, and the
    /// committed figures read from them, depend on these exact numbers —
    /// the pinned regression test below holds them.
    ///
    /// Flat on the hot path: a leaf, or a `Pair` of leaves (a sum and its
    /// count, a joined row), is sized without a call, so the function
    /// inlines into the per-record loops; only a deeper value recurses.
    #[inline]
    pub fn encoded_size(&self) -> u64 {
        match self {
            Value::Pair(a, b) => 1 + a.child_size() + b.child_size(),
            v => v.child_size(),
        }
    }

    /// [`Value::encoded_size`] of a leaf without a call; a container
    /// recurses out of line.
    #[inline(always)]
    fn child_size(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) => 1 + 8,
            Value::Str(s) => 1 + 4 + s.len() as u64,
            Value::Vector(v) => 1 + 8 + 8 * v.len() as u64,
            Value::Pair(a, b) => Value::pair_size(a, b),
            Value::List(vs) => Value::list_size(vs),
        }
    }

    #[inline(never)]
    fn pair_size(a: &Value, b: &Value) -> u64 {
        1 + a.encoded_size() + b.encoded_size()
    }

    /// Tag + u64 count, then each element with its own tag — the same
    /// per-element accounting as `Pair`'s children.
    #[inline(never)]
    fn list_size(vs: &[Value]) -> u64 {
        1 + 8 + vs.iter().map(Value::encoded_size).sum::<u64>()
    }

    /// Extracts a float, panicking with context otherwise (workload code
    /// controls its own schemas, so a mismatch is a bug).
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(f) => *f,
            Value::Int(i) => *i as f64,
            other => panic!("expected numeric value, got {other:?}"),
        }
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => panic!("expected integer value, got {other:?}"),
        }
    }

    /// Borrows the vector payload.
    pub fn as_vector(&self) -> &[f64] {
        match self {
            Value::Vector(v) => v,
            other => panic!("expected vector value, got {other:?}"),
        }
    }

    /// Convenience constructor for string values.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Convenience constructor for vector values (copies `v` into the
    /// shared allocation; see [`Value::vector_from`] to build it there).
    pub fn vector(v: Vec<f64>) -> Value {
        Value::Vector(Arc::from(v))
    }

    /// A vector value collected straight into its shared allocation: an
    /// iterator of known length (a `map`/`zip`/`chain` over slices or
    /// ranges) allocates once.
    pub fn vector_from(elems: impl IntoIterator<Item = f64>) -> Value {
        Value::Vector(elems.into_iter().collect())
    }
}

/// One keyed record flowing through the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Partitioning key.
    pub key: Key,
    /// Payload.
    pub value: Value,
}

/// The placeholder a moved-out record leaves behind (`std::mem::take`):
/// no key, no value, no heap.
impl Default for Record {
    fn default() -> Self {
        Record::keyless(Value::Null)
    }
}

impl Record {
    /// Creates a record.
    pub fn new(key: Key, value: Value) -> Self {
        Record { key, value }
    }

    /// A keyless record.
    pub fn keyless(value: Value) -> Self {
        Record {
            key: Key::None,
            value,
        }
    }

    /// Approximate serialized size in bytes.
    #[inline]
    pub fn encoded_size(&self) -> u64 {
        2 + self.key.encoded_size() + self.value.encoded_size()
    }
}

/// A record by value or by reference. Each data-plane step (narrow-chain
/// step, map-side combine, reduce-side merges) is written once over this:
/// an owned record is moved into whatever keeps it, a borrowed one is
/// cloned only in the part that is kept — the whole record when it is the
/// first with its key, just the value when it joins a key already held,
/// nothing when it is folded by reference or dropped.
pub trait IntoRecord: std::borrow::Borrow<Record> {
    /// The whole record, cloned if it was borrowed.
    fn into_record(self) -> Record;
    /// Only the value, cloned if the record was borrowed.
    fn into_value(self) -> Value;
}

impl IntoRecord for Record {
    fn into_record(self) -> Record {
        self
    }
    fn into_value(self) -> Value {
        self.value
    }
}

impl IntoRecord for &Record {
    fn into_record(self) -> Record {
        self.clone()
    }
    fn into_value(self) -> Value {
        self.value.clone()
    }
}

/// Total bytes of a record batch.
pub fn batch_size(records: &[Record]) -> u64 {
    records.iter().map(Record::encoded_size).sum()
}

/// Minimal FNV-1a hasher (deterministic across processes). This is *the*
/// engine hasher: key hashing ([`Key::stable_hash`]) and stage signatures
/// ([`fnv1a`] + [`hash_combine`]) both run through it.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    /// Feeds one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }
    /// Feeds a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }
    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// FNV-1a over arbitrary bytes — shared by stage signatures.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// Combines two hash values (for chaining signatures).
pub fn hash_combine(a: u64, b: u64) -> u64 {
    // boost::hash_combine-style mix.
    a ^ (b
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(a << 6)
        .wrapping_add(a >> 2))
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.partial_cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_ordering_is_total_within_variant() {
        assert!(Key::Int(1) < Key::Int(2));
        assert!(Key::str("a") < Key::str("b"));
        let p1 = Key::Pair(Box::new(Key::Int(1)), Box::new(Key::Int(5)));
        let p2 = Key::Pair(Box::new(Key::Int(1)), Box::new(Key::Int(9)));
        assert!(p1 < p2);
    }

    #[test]
    fn stable_hash_is_deterministic_and_spread() {
        assert_eq!(Key::Int(42).stable_hash(), Key::Int(42).stable_hash());
        assert_ne!(Key::Int(42).stable_hash(), Key::Int(43).stable_hash());
        assert_ne!(Key::Int(42).stable_hash(), Key::str("42").stable_hash());
        // Composite keys hash differently from their parts.
        let pair = Key::Pair(Box::new(Key::Int(1)), Box::new(Key::Int(2)));
        assert_ne!(pair.stable_hash(), Key::Int(1).stable_hash());
    }

    #[test]
    fn encoded_sizes_scale_with_content() {
        assert_eq!(Key::Int(7).encoded_size(), 9);
        assert_eq!(Key::str("abcd").encoded_size(), 9);
        assert_eq!(Value::vector(vec![0.0; 10]).encoded_size(), 89);
        let r = Record::new(Key::Int(1), Value::Float(2.0));
        assert_eq!(r.encoded_size(), 2 + 9 + 9);
    }

    /// Pins `encoded_size` for every variant: shuffle byte tables (and the
    /// committed figures derived from them) depend on the exact numbers.
    /// Any change here is a data-format change, not a refactor.
    #[test]
    fn encoded_size_pinned_per_variant() {
        // Keys: tag byte + payload.
        assert_eq!(Key::None.encoded_size(), 1);
        assert_eq!(Key::Int(0).encoded_size(), 9);
        assert_eq!(Key::str("").encoded_size(), 5);
        assert_eq!(Key::str("abc").encoded_size(), 8);
        let kpair = Key::Pair(Box::new(Key::Int(1)), Box::new(Key::str("xy")));
        assert_eq!(kpair.encoded_size(), 1 + 9 + 7);
        let knest = Key::Pair(Box::new(kpair.clone()), Box::new(Key::None));
        assert_eq!(knest.encoded_size(), 1 + 17 + 1);

        // Values: tag byte + payload; variable-length containers add a
        // length word; every nested element re-counts its own tag.
        assert_eq!(Value::Null.encoded_size(), 1);
        assert_eq!(Value::Int(7).encoded_size(), 9);
        assert_eq!(Value::Float(1.5).encoded_size(), 9);
        assert_eq!(Value::str("").encoded_size(), 5);
        assert_eq!(Value::str("hello").encoded_size(), 10);
        assert_eq!(Value::vector(vec![]).encoded_size(), 9);
        assert_eq!(Value::vector(vec![0.0; 3]).encoded_size(), 9 + 24);
        let vpair = Value::Pair(Box::new(Value::Int(1)), Box::new(Value::Null));
        assert_eq!(vpair.encoded_size(), 1 + 9 + 1);
        // List counts per-element tags consistently with Pair: tag + u64
        // count header, then each element's own tagged size.
        assert_eq!(Value::List(Arc::new(vec![])).encoded_size(), 9);
        let list = Value::List(Arc::new(vec![Value::Int(1), Value::Null, Value::str("ab")]));
        assert_eq!(list.encoded_size(), 9 + 9 + 1 + 7);
        let nested = Value::List(Arc::new(vec![list.clone(), vpair]));
        assert_eq!(nested.encoded_size(), 9 + 26 + 11);

        // Record: 2-byte header + tagged key + tagged value.
        let r = Record::new(Key::Int(1), list);
        assert_eq!(r.encoded_size(), 2 + 9 + 26);
    }

    #[test]
    fn batch_size_sums_records() {
        let batch = vec![
            Record::new(Key::Int(1), Value::Null),
            Record::new(Key::Int(2), Value::Int(5)),
        ];
        assert_eq!(batch_size(&batch), (2 + 9 + 1) + (2 + 9 + 9));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Float(2.5).as_float(), 2.5);
        assert_eq!(Value::Int(3).as_float(), 3.0);
        assert_eq!(Value::Int(3).as_int(), 3);
        assert_eq!(Value::vector(vec![1.0, 2.0]).as_vector(), &[1.0, 2.0]);
        let built = Value::vector_from([1.0, 2.0].iter().map(|x| x * 2.0).chain([9.0]));
        assert_eq!(built, Value::vector(vec![2.0, 4.0, 9.0]));
    }

    #[test]
    #[should_panic(expected = "expected numeric")]
    fn as_float_on_string_panics() {
        let _ = Value::str("x").as_float();
    }

    #[test]
    fn value_partial_ord_mixes_numerics() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(2.0) > Value::Int(1));
        assert_eq!(Value::str("a").partial_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn hash_combine_is_order_sensitive() {
        let a = fnv1a(b"map");
        let b = fnv1a(b"filter");
        assert_ne!(hash_combine(a, b), hash_combine(b, a));
    }
}
