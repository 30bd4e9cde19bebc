//! Deterministic data generators (the SparkBench data-generator analog).
//!
//! Every generator is a pure function of `(seed, global record index)` —
//! crucially **independent of the partition count**, so retuning the number
//! of partitions never changes the data itself, only how it is split. All
//! randomness comes from a seeded xorshift generator; runs are exactly
//! reproducible.
//!
//! Points draw each coordinate from the 256-layer ziggurat of
//! [`XorShift64::next_normal`]: the input layer is rebuilt by every run,
//! CHOPPER's sandboxed test runs included, and about 99 % of ziggurat
//! draws cost one RNG output, one table lookup and one compare, where
//! Box–Muller paid two outputs, a `ln`, a `sqrt` and a `cos` (~10× the
//! time). Each point reads its own `record_rng(seed, index)`, so the rare
//! draw that takes more than one output moves no other point, and takes
//! its coordinates from that generator's [`XorShift64::normals`], which
//! fetches the ziggurat tables once per point instead of once per
//! coordinate.
//!
//! Each generator produces a split through `stream` (see [`Emit`]): points
//! are built whole and emitted, table rows are written into the slot the
//! pass hands out — where nothing keeps them, over the last row's key,
//! amount and pair, sharing one payload string per split — so a scan that
//! only projects its rows allocates nothing per row. `partition` is the
//! collected `stream`.

use engine::{Emit, Key, Record, Value};
use numeric::XorShift64;
use std::sync::{Arc, Mutex};

/// Monotone warp of `[0, 1]` used to make partition sizes uneven the way
/// real input splits are: `x + A·sin(2πmx)/(2πm)` has derivative
/// `1 + A·cos(2πmx)`, so with `|A| < 1` it stays strictly increasing while
/// split sizes vary between `(1−A)×` and `(1+A)×` the mean. This is what
/// gives small partition counts their straggler penalty (paper Fig. 3):
/// with one task per core, the fattest split defines the stage makespan,
/// while larger counts let the scheduler smooth the imbalance out.
fn warp(x: f64) -> f64 {
    const A: f64 = 0.7;
    const M: f64 = 13.0;
    x + A * (std::f64::consts::TAU * M * x).sin() / (std::f64::consts::TAU * M)
}

/// The record-index range `[start, end)` of partition `part` of `parts`
/// over `n` records, with realistic split-size variance. Consecutive
/// partitions tile `0..n` exactly; the union over all partitions is the
/// whole dataset regardless of `parts`.
pub fn skewed_range(n: u64, part: usize, parts: usize) -> (u64, u64) {
    assert!(part < parts, "partition index out of range");
    let lo = (warp(part as f64 / parts as f64) * n as f64).round() as u64;
    let hi = (warp((part + 1) as f64 / parts as f64) * n as f64).round() as u64;
    (lo.min(n), hi.min(n))
}

/// Per-record RNG: decorrelates consecutive indices via splitmix-style
/// scrambling of the seed.
fn record_rng(seed: u64, index: u64) -> XorShift64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    XorShift64::new(z ^ (z >> 31))
}

/// What `stream` produces, as a vector.
fn collected(stream: impl FnOnce(&mut dyn Emit)) -> Vec<Record> {
    let mut records = Vec::new();
    stream(&mut records);
    records
}

/// Gaussian-mixture generator for KMeans/PCA: `centers` cluster centers in
/// `dim` dimensions, isotropic `spread` around each.
#[derive(Debug, Clone)]
pub struct PointGen {
    /// Cluster centers.
    pub centers: Vec<Vec<f64>>,
    /// Standard deviation around each center.
    pub spread: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl PointGen {
    /// `k` deterministic centers on a scaled lattice in `dim` dimensions.
    pub fn new(k: usize, dim: usize, spread: f64, seed: u64) -> Self {
        assert!(k > 0 && dim > 0, "need at least one center and dimension");
        let mut rng = XorShift64::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
        let centers = (0..k)
            .map(|_| (0..dim).map(|_| (rng.next_f64() - 0.5) * 20.0).collect())
            .collect();
        PointGen {
            centers,
            spread,
            seed,
        }
    }

    /// The dimensionality of generated points.
    pub fn dim(&self) -> usize {
        self.centers[0].len()
    }

    /// The coordinates of the point at global index `i`: a sample around
    /// center `i % k`.
    fn coords(&self, i: u64) -> impl Iterator<Item = f64> + '_ {
        let center = &self.centers[(i % self.centers.len() as u64) as usize];
        let normals = record_rng(self.seed, i).normals();
        center
            .iter()
            .zip(normals)
            .map(move |(&c, z)| c + self.spread * z)
    }

    /// The point at global index `i`.
    pub fn point(&self, i: u64) -> Vec<f64> {
        self.coords(i).collect()
    }

    /// The record at global index `i`: its index as key, vector payload.
    pub fn record(&self, i: u64) -> Record {
        Record::new(Key::Int(i as i64), Value::vector_from(self.coords(i)))
    }

    /// Produces partition `part` of `parts` over `n` total points into
    /// `out`, with realistic split-size variance (see [`skewed_range`]).
    pub fn stream(&self, n: u64, part: usize, parts: usize, out: &mut dyn Emit) {
        let (start, end) = skewed_range(n, part, parts);
        out.reserve((end - start) as usize);
        for i in start..end {
            out.emit(self.record(i));
        }
    }

    /// [`PointGen::stream`], collected.
    pub fn partition(&self, n: u64, part: usize, parts: usize) -> Vec<Record> {
        collected(|out| self.stream(n, part, parts, out))
    }

    /// Approximate serialized bytes of `n` points (for block-store sizing).
    pub fn bytes(&self, n: u64) -> u64 {
        n * (self.dim() as u64 * 8 + 22)
    }
}

/// Most guide buckets a [`ZipfTable`] keeps: 2^16 `u32` entries, 256 KiB.
const MAX_GUIDE_BUCKETS: usize = 1 << 16;

/// A Zipf(`exponent`) law over `keys` values, drawn in O(1) expected time.
///
/// Beside the normalized CDF the table keeps a guide of `G = 2^k`
/// buckets: `guide[b]` is the first CDF index whose entry is `>= b/G`. A
/// uniform `u ∈ [0, 1)` falls in bucket `b = ⌊u·G⌋`, so `b/G <= u <
/// (b+1)/G` and the first entry `>= u` lies in `guide[b]..=guide[b+1]` —
/// only that slice is searched. `G` is a power of two, so `u·G`, its floor
/// and `b/G` are all exact in `f64`: the drawn index is the same
/// `partition_point` a search of the whole CDF returns, for every `u`.
#[derive(Debug)]
pub(crate) struct ZipfTable {
    keys: usize,
    exponent: f64,
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl ZipfTable {
    /// The law over `keys` values with the given exponent. `exponent = 0`
    /// is uniform; ~1 is web-like skew.
    pub(crate) fn new(keys: usize, exponent: f64) -> Self {
        assert!(keys > 0, "need at least one key");
        assert!(
            u32::try_from(keys).is_ok(),
            "guide entries index the CDF in 32 bits"
        );
        let mut cdf = Vec::with_capacity(keys);
        let mut acc = 0.0;
        for k in 1..=keys {
            acc += 1.0 / (k as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("non-empty");
        for v in &mut cdf {
            *v /= total;
        }
        // One sweep: the CDF is non-decreasing, so each bucket edge's first
        // entry lies at or after the previous edge's.
        let buckets = keys.next_power_of_two().min(MAX_GUIDE_BUCKETS);
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut i = 0;
        for b in 0..=buckets {
            let edge = b as f64 / buckets as f64;
            while i < cdf.len() && cdf[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        ZipfTable {
            keys,
            exponent,
            cdf,
            guide,
        }
    }

    /// Whether this is the law over `keys` values with `exponent`.
    fn is(&self, keys: usize, exponent: f64) -> bool {
        self.keys == keys && self.exponent.to_bits() == exponent.to_bits()
    }

    /// The key `u ∈ [0, 1)` draws: the first CDF index whose entry is
    /// `>= u`, clamped to the last key.
    pub(crate) fn index(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        let b = ((u * buckets as f64) as usize).min(buckets - 1);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let idx = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1)
    }
}

/// One workload's Zipf table, built on first use and again only when the
/// law it is asked for changes — so every run of a workload value, and
/// every table of one run, shares one CDF and guide.
#[derive(Debug, Default)]
pub(crate) struct ZipfSlot(Mutex<Option<Arc<ZipfTable>>>);

impl ZipfSlot {
    /// The table of the law over `keys` values with `exponent`.
    pub(crate) fn get(&self, keys: usize, exponent: f64) -> Arc<ZipfTable> {
        // The slot only ever holds a whole table or none, so one a
        // panicking holder left behind is still valid.
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        match &*slot {
            Some(table) if table.is(keys, exponent) => Arc::clone(table),
            _ => Arc::clone(slot.insert(Arc::new(ZipfTable::new(keys, exponent)))),
        }
    }
}

/// Approximate serialized bytes of `n` table rows with `payload` bytes of
/// string each.
pub(crate) fn table_bytes(n: u64, payload: usize) -> u64 {
    n * (payload as u64 + 40)
}

/// Zipf-distributed keyed-row generator for the SQL workload.
#[derive(Debug, Clone)]
pub struct TableGen {
    keys: Arc<ZipfTable>,
    /// Base RNG seed.
    pub seed: u64,
    /// Bytes of string payload per row.
    pub payload: usize,
}

/// A string payload of `bytes` bytes.
fn filler(bytes: usize) -> Arc<str> {
    Arc::from("x".repeat(bytes))
}

/// Writes the table row `(key, Pair(amount, payload))` over `row`: into
/// its own pair when it holds one, and sharing `payload` unless it does
/// already, so a row written over the last one allocates nothing and
/// counts no reference.
fn write_row(row: &mut Record, key: i64, amount: f64, payload: &Arc<str>) {
    row.key = Key::Int(key);
    let (a, p) = row.value.pair_mut();
    *a = Value::Float(amount);
    if !matches!(p, Value::Str(s) if Arc::ptr_eq(s, payload)) {
        *p = Value::Str(Arc::clone(payload));
    }
}

/// A row built whole by `write` (see [`write_row`]).
fn fresh_row(write: impl FnOnce(&mut Record)) -> Record {
    let mut row = Record::default();
    write(&mut row);
    row
}

/// A row's amount: uniform over `[0, 1000]` in cents.
fn amount(seed: u64, i: u64) -> f64 {
    (record_rng(seed, i).next_f64() * 1000.0 * 100.0).round() / 100.0
}

impl TableGen {
    /// A table whose keys follow a Zipf(`exponent`) law over `keys`
    /// distinct values. `exponent = 0` is uniform; ~1 is web-like skew.
    pub fn new(keys: usize, exponent: f64, payload: usize, seed: u64) -> Self {
        TableGen::over(Arc::new(ZipfTable::new(keys, exponent)), payload, seed)
    }

    /// A table whose keys follow `keys`, a law other tables share.
    pub(crate) fn over(keys: Arc<ZipfTable>, payload: usize, seed: u64) -> Self {
        TableGen {
            keys,
            seed,
            payload,
        }
    }

    /// The key of row `i` (Zipf-sampled).
    pub fn key(&self, i: u64) -> i64 {
        let mut rng = record_rng(self.seed, i);
        self.keys.index(rng.next_f64()) as i64
    }

    /// The row at global index `i`: `(key, Pair(amount, payload))`.
    pub fn record(&self, i: u64) -> Record {
        fresh_row(|row| self.write(row, i, &filler(self.payload)))
    }

    /// Writes row `i` over `row` around a payload the caller built.
    fn write(&self, row: &mut Record, i: u64, payload: &Arc<str>) {
        write_row(row, self.key(i), amount(self.seed ^ 0xABCD, i), payload);
    }

    /// Produces partition `part` of `parts` over `n` rows into `out`, with
    /// realistic split-size variance (see [`skewed_range`]). The rows of
    /// one call share one payload string — built per call, not per
    /// generator, so concurrent tasks do not count references on the same
    /// cache line.
    pub fn stream(&self, n: u64, part: usize, parts: usize, out: &mut dyn Emit) {
        let (start, end) = skewed_range(n, part, parts);
        out.reserve((end - start) as usize);
        let payload = filler(self.payload);
        for i in start..end {
            out.put(&mut |row| self.write(row, i, &payload));
        }
    }

    /// [`TableGen::stream`], collected.
    pub fn partition(&self, n: u64, part: usize, parts: usize) -> Vec<Record> {
        collected(|out| self.stream(n, part, parts, out))
    }

    /// Approximate serialized bytes of `n` rows.
    pub fn bytes(&self, n: u64) -> u64 {
        table_bytes(n, self.payload)
    }
}

/// Byte-skewed keyed-row generator for the skewed-aggregation workload:
/// key *frequencies* are uniform, but a contiguous low range of keys
/// carries a payload `fat_factor ×` larger than the rest. Count-based
/// partitioning (and sampled range bounds, which equalize record counts)
/// cannot see the imbalance — the partition holding the fat key range is
/// byte-hot.
#[derive(Debug, Clone)]
pub struct HotTableGen {
    /// Distinct keys (uniformly likely).
    pub keys: usize,
    /// Keys `0..fat_keys` carry the fat payload.
    pub fat_keys: usize,
    /// String payload bytes of a thin row.
    pub payload: usize,
    /// Fat-row payload multiplier.
    pub fat_factor: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl HotTableGen {
    /// A table over `keys` uniform keys where keys `0..fat_keys` carry
    /// `fat_factor × payload` bytes.
    pub fn new(keys: usize, fat_keys: usize, payload: usize, fat_factor: usize, seed: u64) -> Self {
        assert!(
            keys > 0 && fat_keys <= keys,
            "fat range must fit the key space"
        );
        assert!(fat_factor >= 1, "fat rows cannot be thinner than thin rows");
        HotTableGen {
            keys,
            fat_keys,
            payload,
            fat_factor,
            seed,
        }
    }

    /// The key of row `i` (uniform over `0..keys`).
    pub fn key(&self, i: u64) -> i64 {
        let mut rng = record_rng(self.seed, i);
        rng.next_below(self.keys as u64) as i64
    }

    /// The thin and the fat payload string.
    fn payloads(&self) -> [Arc<str>; 2] {
        [self.payload, self.payload * self.fat_factor].map(filler)
    }

    /// The row at global index `i`: `(key, Pair(amount, payload))` where
    /// the payload is fat iff the key falls in the hot range.
    pub fn record(&self, i: u64) -> Record {
        fresh_row(|row| self.write(row, i, &self.payloads()))
    }

    /// Whether `key` carries the fat payload.
    fn is_fat(&self, key: i64) -> bool {
        (key as u64) < self.fat_keys as u64
    }

    /// Writes row `i` over `row` around `[thin, fat]` payloads the caller
    /// built.
    fn write(&self, row: &mut Record, i: u64, payloads: &[Arc<str>; 2]) {
        let key = self.key(i);
        let payload = &payloads[usize::from(self.is_fat(key))];
        write_row(row, key, amount(self.seed ^ 0xF00D, i), payload);
    }

    /// Produces partition `part` of `parts` over `n` rows into `out`, with
    /// realistic split-size variance (see [`skewed_range`]). As in
    /// [`TableGen::stream`], the rows of one call share their thin and fat
    /// payload strings.
    pub fn stream(&self, n: u64, part: usize, parts: usize, out: &mut dyn Emit) {
        let (start, end) = skewed_range(n, part, parts);
        out.reserve((end - start) as usize);
        let payloads = self.payloads();
        for i in start..end {
            out.put(&mut |row| self.write(row, i, &payloads));
        }
    }

    /// [`HotTableGen::stream`], collected.
    pub fn partition(&self, n: u64, part: usize, parts: usize) -> Vec<Record> {
        collected(|out| self.stream(n, part, parts, out))
    }

    /// Approximate serialized bytes of `n` rows (expected payload mix).
    pub fn bytes(&self, n: u64) -> u64 {
        let fat_share = self.fat_keys as f64 / self.keys as f64;
        let mean_payload = self.payload as f64 * (1.0 + fat_share * (self.fat_factor as f64 - 1.0));
        n * (mean_payload as u64 + 40)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_deterministic() {
        let g = PointGen::new(5, 8, 1.0, 42);
        assert_eq!(g.point(17), g.point(17));
        assert_ne!(g.point(17), g.point(18));
        let g2 = PointGen::new(5, 8, 1.0, 43);
        assert_ne!(g.point(17), g2.point(17), "seed changes data");
    }

    #[test]
    fn partitioning_does_not_change_the_data() {
        let g = PointGen::new(3, 4, 0.5, 7);
        let n = 100;
        let coarse: Vec<Record> = (0..4).flat_map(|p| g.partition(n, p, 4)).collect();
        let fine: Vec<Record> = (0..10).flat_map(|p| g.partition(n, p, 10)).collect();
        assert_eq!(coarse, fine, "same records regardless of split count");
        assert_eq!(coarse.len(), 100);
    }

    /// Copies what a generator writes into a slot it never resets, as a
    /// sink that keeps nothing does: each record is written over the last
    /// one, and the first over a record of another shape.
    struct Tape {
        slot: Record,
        records: Vec<Record>,
        reserved: usize,
    }

    impl Emit for Tape {
        fn put(&mut self, write: &mut dyn FnMut(&mut Record)) {
            write(&mut self.slot);
            self.records.push(self.slot.clone());
        }
        fn reserve(&mut self, additional: usize) {
            self.reserved += additional;
        }
    }

    /// `stream` produces each split's records one by one — whatever its
    /// slot held before — announced by one exact `reserve`; `partition` is
    /// that, collected.
    fn assert_streams_its_records(
        stream: impl Fn(u64, usize, usize, &mut dyn Emit),
        partition: impl Fn(u64, usize, usize) -> Vec<Record>,
        record: impl Fn(u64) -> Record,
    ) {
        let n = 300;
        for parts in [1, 4, 9] {
            for part in 0..parts {
                let (lo, hi) = skewed_range(n, part, parts);
                let mut tape = Tape {
                    slot: Record::new(Key::str("stale"), Value::vector(vec![9.0; 7])),
                    records: Vec::new(),
                    reserved: 0,
                };
                stream(n, part, parts, &mut tape);
                let one_by_one: Vec<Record> = (lo..hi).map(&record).collect();
                assert_eq!(tape.records, one_by_one, "split {part} of {parts}");
                assert_eq!(tape.reserved, one_by_one.len(), "one exact hint");
                assert_eq!(partition(n, part, parts), one_by_one);
            }
        }
    }

    #[test]
    fn a_streamed_split_is_its_records_one_by_one() {
        let g = PointGen::new(3, 4, 0.5, 7);
        assert_streams_its_records(
            |n, p, of, out| g.stream(n, p, of, out),
            |n, p, of| g.partition(n, p, of),
            |i| g.record(i),
        );
        let g = TableGen::new(40, 1.1, 8, 3);
        assert_streams_its_records(
            |n, p, of, out| g.stream(n, p, of, out),
            |n, p, of| g.partition(n, p, of),
            |i| g.record(i),
        );
        let g = HotTableGen::new(32, 4, 8, 8, 5);
        assert_streams_its_records(
            |n, p, of, out| g.stream(n, p, of, out),
            |n, p, of| g.partition(n, p, of),
            |i| g.record(i),
        );
    }

    #[test]
    fn points_cluster_around_centers() {
        let g = PointGen::new(2, 4, 0.1, 11);
        // Point 0 belongs to center 0, point 1 to center 1.
        let p0 = g.point(0);
        let d0: f64 = p0
            .iter()
            .zip(&g.centers[0])
            .map(|(a, b)| (a - b).powi(2))
            .sum();
        let d1: f64 = p0
            .iter()
            .zip(&g.centers[1])
            .map(|(a, b)| (a - b).powi(2))
            .sum();
        assert!(d0 < d1, "point 0 is near its own center");
    }

    #[test]
    fn zipf_keys_are_skewed_toward_small_ids() {
        let g = TableGen::new(100, 1.2, 8, 3);
        let mut counts = vec![0u64; 100];
        for i in 0..20_000 {
            counts[g.key(i) as usize] += 1;
        }
        let head: u64 = counts[..10].iter().sum();
        let tail: u64 = counts[90..].iter().sum();
        assert!(head > 5 * tail, "zipf head must dominate: {head} vs {tail}");
        assert!(counts.iter().all(|&c| c < 20_000), "but not a single key");
    }

    /// The guide draw is the whole-CDF search at every bucket edge and
    /// every CDF entry, and at both their `f64` neighbours — the only
    /// places the two searches could part.
    #[test]
    fn guide_draws_equal_a_search_of_the_whole_cdf() {
        for keys in [1, 7, 500, 40_000, 1_000_000] {
            for exponent in [0.0, 0.9, 1.3, 2.5] {
                let t = ZipfTable::new(keys, exponent);
                let buckets = t.guide.len() - 1;
                assert!(buckets.is_power_of_two());
                assert!(t.guide.len() * 4 <= 512 * 1024, "guide stays small");
                let whole = |u: f64| t.cdf.partition_point(|&c| c < u).min(keys - 1);
                let edges = (0..=buckets).map(|b| b as f64 / buckets as f64);
                let entries = t.cdf.iter().copied().take(4096);
                for at in edges.chain(entries) {
                    for u in [at.next_down(), at, at.next_up()] {
                        if (0.0..=1.0).contains(&u) {
                            assert_eq!(t.index(u), whole(u), "keys={keys} s={exponent} u={u:e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_slot_rebuilds_only_when_the_law_changes() {
        let slot = ZipfSlot::default();
        let a = slot.get(500, 1.3);
        assert!(Arc::ptr_eq(&a, &slot.get(500, 1.3)), "same law, same table");
        for (keys, exponent) in [(501, 1.3), (500, 1.2)] {
            let fresh = slot.get(keys, exponent);
            assert!(fresh.is(keys, exponent), "never a stale table");
            let u = 0.999;
            assert_eq!(fresh.index(u), ZipfTable::new(keys, exponent).index(u));
        }
    }

    #[test]
    fn uniform_exponent_is_flat() {
        let g = TableGen::new(50, 0.0, 8, 5);
        let mut counts = vec![0u64; 50];
        for i in 0..20_000 {
            counts[g.key(i) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let mean = 20_000.0 / 50.0;
        assert!(max / mean < 1.5, "uniform keys should be balanced");
    }

    #[test]
    fn table_rows_have_expected_shape() {
        let g = TableGen::new(10, 1.0, 16, 9);
        let r = g.record(5);
        match (&r.key, &r.value) {
            (Key::Int(k), Value::Pair(amount, payload)) => {
                assert!((0..10).contains(k));
                assert!(amount.as_float() >= 0.0);
                assert!(matches!(&**payload, Value::Str(s) if s.len() == 16));
            }
            other => panic!("unexpected row shape {other:?}"),
        }
    }

    #[test]
    fn skewed_ranges_tile_exactly() {
        for parts in [1usize, 3, 7, 100] {
            let n = 10_000u64;
            let mut expected_start = 0u64;
            for p in 0..parts {
                let (lo, hi) = skewed_range(n, p, parts);
                assert_eq!(lo, expected_start, "partitions must tile contiguously");
                assert!(hi >= lo);
                expected_start = hi;
            }
            assert_eq!(expected_start, n, "last partition ends at n");
        }
    }

    #[test]
    fn skewed_ranges_vary_in_size() {
        let n = 100_000u64;
        let parts = 50;
        let sizes: Vec<u64> = (0..parts)
            .map(|p| {
                let (lo, hi) = skewed_range(n, p, parts);
                hi - lo
            })
            .collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        let mean = n as f64 / parts as f64;
        assert!(max / mean > 1.2, "fat splits exist: max={max} mean={mean}");
        assert!(min / mean < 0.8, "thin splits exist: min={min} mean={mean}");
    }

    #[test]
    fn hot_table_keys_are_uniform_but_bytes_are_not() {
        let g = HotTableGen::new(64, 8, 8, 16, 77);
        let mut counts = vec![0u64; 64];
        let mut bytes = vec![0u64; 64];
        for i in 0..20_000 {
            let r = g.record(i);
            let k = match &r.key {
                Key::Int(k) => *k as usize,
                other => panic!("unexpected key {other:?}"),
            };
            counts[k] += 1;
            if let Value::Pair(_, payload) = &r.value {
                if let Value::Str(s) = &**payload {
                    bytes[k] += s.len() as u64;
                }
            }
        }
        let max_count = *counts.iter().max().unwrap() as f64;
        let mean_count = 20_000.0 / 64.0;
        assert!(max_count / mean_count < 1.5, "key frequencies stay uniform");
        let fat: u64 = bytes[..8].iter().sum();
        let thin: u64 = bytes[8..].iter().sum();
        assert!(
            fat > 2 * thin,
            "fat key range dominates bytes: {fat} vs {thin}"
        );
    }

    #[test]
    fn hot_table_is_deterministic_and_partition_invariant() {
        let g = HotTableGen::new(32, 4, 8, 8, 5);
        let coarse: Vec<Record> = (0..2).flat_map(|p| g.partition(200, p, 2)).collect();
        let fine: Vec<Record> = (0..7).flat_map(|p| g.partition(200, p, 7)).collect();
        assert_eq!(coarse, fine, "same rows regardless of split count");
        assert_eq!(coarse.len(), 200);
    }

    #[test]
    fn table_rows_are_partition_invariant() {
        let g = TableGen::new(50, 1.2, 8, 9);
        let coarse: Vec<Record> = (0..3).flat_map(|p| g.partition(250, p, 3)).collect();
        let fine: Vec<Record> = (0..11).flat_map(|p| g.partition(250, p, 11)).collect();
        assert_eq!(coarse, fine, "same rows regardless of split count");
        assert_eq!(coarse.len(), 250);
    }

    #[test]
    fn byte_estimates_scale_linearly() {
        let g = PointGen::new(2, 10, 1.0, 1);
        assert_eq!(g.bytes(200), 2 * g.bytes(100));
        let t = TableGen::new(10, 1.0, 32, 1);
        assert!(t.bytes(1000) > 32_000);
    }
}
