//! Per-tenant job execution: four workload builders over a long-lived
//! engine [`Context`], with cross-job reuse of cached source RDDs.
//!
//! Each tenant owns one `Context` for the server's lifetime. A job's
//! source RDDs are cached under its dataset key `(kind, scale, seed)`,
//! so a later job of the same tenant asking for the same dataset reads
//! them materialized: the cross-job cache reuse the job server
//! advertises. A dataset is cached only if another declared job reads
//! it, and lives from its first job to its last: [`serve`](crate::serve)
//! tells each runtime its jobs up front (`expect`), the runtime counts
//! them down as they run or are rejected (`skip`), and after the last
//! one it uncaches the dataset's sources — no later job reads them. A
//! dataset whose first build is also its last declared job is never
//! cached: its query streams each generated split through its chain.
//! Under an `executor_mem` budget a live dataset may spill to disk, but
//! it is not dropped before its last job. A runtime told nothing, as one
//! built outside `serve` is, caches and keeps everything it builds.
//! Every generator is a pure function of `(seed, global record index)`,
//! so results are independent of partition count, worker count, and
//! physical interleaving; the word-count generator builds each word's
//! key once per split and shares it among that split's records.
//! [`JobOutcome::hash`] is FNV-1a over the result rows' `Debug` text,
//! written into the hasher in place.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::Write;
use std::sync::Arc;

use engine::record::Fnv;
use engine::{
    sum_vector_counts, sum_vectors, Context, Emit, EngineOptions, GenFn, Key, Rdd, Record, Value,
};

use crate::trace_file::{JobKind, JobRequest};

/// Nominal record counts at `scale = 1.0`.
const WC_RECORDS: f64 = 30_000.0;
const SQL_ORDERS: f64 = 20_000.0;
const SQL_CUSTOMERS: f64 = 2_000.0;
const ML_POINTS: f64 = 6_000.0;
/// Feature dimension for the ML kinds.
const DIM: usize = 4;
/// K-means cluster count.
const KM_K: usize = 8;

/// Per-record virtual compute costs (seconds per record before node
/// speed). Sized so a light (scale ~0.1) job takes a couple of virtual
/// seconds and a heavy (scale ~0.65) one tens of seconds — enough for a
/// loadgen trace's arrivals to actually contend. Purely virtual: host
/// execution time is unaffected.
const GEN_COST: f64 = 4800e-6;
const MAP_COST: f64 = 3600e-6;
const REDUCE_COST: f64 = 2400e-6;
const JOIN_COST: f64 = 4800e-6;

/// SplitMix64 finalizer: a pure, index-addressable random stream.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` draw at stream position `i`.
fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed, i) >> 11) as f64 / (1u64 << 53) as f64
}

/// Global index range of partition `part` of `parts` over `n` records.
fn span(n: u64, part: usize, parts: usize) -> (u64, u64) {
    let parts = parts.max(1) as u64;
    let part = part as u64;
    (part * n / parts, (part + 1) * n / parts)
}

/// Scaled record count, at least `floor`.
fn scaled(nominal: f64, scale: f64, floor: u64) -> u64 {
    ((nominal * scale).ceil() as u64).max(floor)
}

/// Deterministic pre-execution estimate of a job's peak memory demand in
/// bytes — what admission control charges against the tenant's budget.
/// A pure function of the request (kind + scale), so admission decisions
/// never depend on execution timing.
pub fn mem_demand(kind: JobKind, scale: f64) -> u64 {
    let input = match kind {
        JobKind::WordCount => scaled(WC_RECORDS, scale, 64) * 24,
        JobKind::Sql => scaled(SQL_ORDERS, scale, 64) * 18 + scaled(SQL_CUSTOMERS, scale, 16) * 18,
        JobKind::KMeans | JobKind::LogReg => scaled(ML_POINTS, scale, 64) * (16 + 8 * DIM as u64),
    };
    // Cached input + shuffle working set + fixed overhead.
    input * 3 + (1 << 20)
}

/// What one finished job reports back to the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Rows in the collected result table.
    pub rows: usize,
    /// FNV-1a hash over the result rows' `Debug` renderings, in order —
    /// the bit-determinism fingerprint CI compares across configs.
    pub hash: u64,
    /// Uncontended service time in virtual seconds (the job's span on the
    /// tenant context's clock).
    pub t_solo: f64,
    /// Mean core demand while running (total task-seconds / span).
    pub cores: f64,
    /// Whether the tenant's dataset cache already held this job's sources.
    pub cache_hit: bool,
}

/// A dataset's identity: `(kind, scale bits, seed)` — the exact scale
/// the generators size the data from, so two scales share a dataset only
/// if they are the same number.
type DatasetKey = (JobKind, u64, u64);

/// The dataset `req` reads.
fn dataset_key(req: &JobRequest) -> DatasetKey {
    (req.kind, req.scale.to_bits(), req.seed)
}

/// A tenant's long-lived execution state. A dataset is cached only if
/// another declared job reads it; one with a single declared job left at
/// its first build is streamed, and one with no declared jobs at all (a
/// runtime told nothing) is cached and kept.
pub struct TenantRuntime {
    /// The tenant's private engine context (shared host pool, own virtual
    /// cluster clock).
    pub ctx: Context,
    /// Cached source RDDs of the datasets built and still live.
    datasets: HashMap<DatasetKey, Vec<Rdd>>,
    /// Declared jobs not yet run or skipped, per dataset. A dataset with
    /// no entry has no declared future and is cached and kept.
    jobs_left: HashMap<DatasetKey, usize>,
    /// Dataset-cache hits across jobs.
    pub cache_hits: u64,
    /// Dataset-cache misses (first builds).
    pub cache_misses: u64,
}

impl TenantRuntime {
    /// Builds the runtime. `options` should carry the server's shared
    /// worker pool and (for fault-injection tenants) a fault plan.
    pub fn new(options: EngineOptions) -> TenantRuntime {
        TenantRuntime {
            ctx: Context::new(options),
            datasets: HashMap::new(),
            jobs_left: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Declares a job this runtime will later be handed, once, to
    /// [`TenantRuntime::run`] or [`TenantRuntime::skip`]. A declared
    /// dataset is uncached right after its last declared job, and not
    /// cached at all if its first build is that job.
    pub(crate) fn expect(&mut self, req: &JobRequest) {
        *self.jobs_left.entry(dataset_key(req)).or_insert(0) += 1;
    }

    /// Gives back a declared job that will never run (it was rejected),
    /// releasing its dataset if no other declared job reads it.
    pub(crate) fn skip(&mut self, req: &JobRequest) {
        self.done_with(dataset_key(req));
    }

    /// Counts one declared job of `key` as finished; after the last one
    /// the dataset's sources are uncached.
    fn done_with(&mut self, key: DatasetKey) {
        let Some(left) = self.jobs_left.get_mut(&key) else {
            return;
        };
        *left -= 1;
        if *left > 0 {
            return;
        }
        self.jobs_left.remove(&key);
        for rdd in self.datasets.remove(&key).unwrap_or_default() {
            self.ctx.uncache(rdd);
        }
    }

    /// Runs one job to completion on the tenant's context and reports the
    /// outcome. Execution is real (host threads); timing is virtual. A
    /// first build that is its dataset's last declared job streams its
    /// sources instead of caching them.
    pub fn run(&mut self, req: &JobRequest) -> JobOutcome {
        let key = dataset_key(req);
        let cache_hit = self.datasets.contains_key(&key);
        let sources = if cache_hit {
            self.cache_hits += 1;
            self.datasets[&key].clone()
        } else {
            self.cache_misses += 1;
            let sources = build_sources(&mut self.ctx, req);
            if self.jobs_left.get(&key) != Some(&1) {
                for &rdd in &sources {
                    self.ctx.cache(rdd);
                }
                self.datasets.insert(key, sources.clone());
            }
            sources
        };
        let out = run_query(&mut self.ctx, req, &sources);
        self.done_with(key);

        let job = self.ctx.jobs().last().expect("collect records job metrics");
        let t_solo = (job.end - job.start).max(1e-9);
        let task_secs: f64 = job
            .stages
            .iter()
            .map(|s| s.task_durations.iter().sum::<f64>())
            .sum();
        JobOutcome {
            rows: out.len(),
            hash: fingerprint(&out),
            t_solo,
            cores: (task_secs / t_solo).max(0.05),
            cache_hit,
        }
    }
}

/// Feeds formatted text straight into an [`Fnv`] hasher.
struct FnvText<'a>(&'a mut Fnv);

impl fmt::Write for FnvText<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a over each row's `Debug` text and a `\n`, in order: the
/// [`JobOutcome::hash`] of `rows`, with no `String` per row.
fn fingerprint(rows: &[Record]) -> u64 {
    let mut h = Fnv::new();
    for rec in rows {
        write!(FnvText(&mut h), "{rec:?}").expect("hashing text cannot fail");
        h.write_u8(b'\n');
    }
    h.finish()
}

/// A source over records `0..n`, each built by `record` and given away;
/// split `part` of `parts` is [`span`]`(n, part, parts)`.
fn generator(n: u64, record: impl Fn(u64) -> Record + Send + Sync + 'static) -> GenFn {
    Arc::new(move |part, parts, out: &mut dyn Emit| {
        let (lo, hi) = span(n, part, parts);
        out.reserve((hi - lo) as usize);
        for i in lo..hi {
            out.emit(record(i));
        }
    })
}

/// The key `w{w:05}`, formatted on the stack: the key's own allocation is
/// the only one. [`words`] calls it once per word a split holds.
fn word_key(w: u64) -> Key {
    let mut buf = [0u8; 24];
    let mut text = std::io::Cursor::new(&mut buf[..]);
    write!(text, "w{w:05}").expect("a u64 has at most 20 digits");
    let len = text.position() as usize;
    Key::str(std::str::from_utf8(&buf[..len]).expect("ascii"))
}

/// The word of record `i` of a word-count dataset: quadratically skewed
/// towards low ids, always below `vocab` (`u < 1`).
fn word_of(s: u64, vocab: u64, i: u64) -> u64 {
    let u = unit(s, i);
    ((u * u) * vocab as f64) as u64
}

/// The word-count source over records `0..n`, each `(word key, 1)`. A
/// word's key is built at its first appearance in the split and cloned
/// after: per split, so no reference count is shared between threads.
fn words(n: u64, vocab: u64, s: u64) -> GenFn {
    Arc::new(move |part, parts, out: &mut dyn Emit| {
        let mut keys: Vec<Option<Key>> = vec![None; vocab as usize];
        let (lo, hi) = span(n, part, parts);
        out.reserve((hi - lo) as usize);
        for i in lo..hi {
            let w = word_of(s, vocab, i);
            let key = keys[w as usize].get_or_insert_with(|| word_key(w));
            out.emit(Record::new(key.clone(), Value::Int(1)));
        }
    })
}

/// Builds (without materializing) the source RDDs for a request.
fn build_sources(ctx: &mut Context, req: &JobRequest) -> Vec<Rdd> {
    let scale = req.scale;
    let seed = req.seed;
    let bits = scale.to_bits();
    match req.kind {
        JobKind::WordCount => {
            let n = scaled(WC_RECORDS, scale, 64);
            let vocab = 100 + (300.0 * scale) as u64;
            let gen = words(n, vocab, mix(seed, 0));
            let file = format!("jobs/wc-{bits:x}-{seed}");
            vec![ctx.text_file(&file, n * 24, gen, GEN_COST, "wc_src")]
        }
        JobKind::Sql => {
            let keys = scaled(1_500.0, scale, 16);
            let n_orders = scaled(SQL_ORDERS, scale, 64);
            let s_ord = mix(seed, 1);
            let gen_orders = generator(n_orders, move |i| {
                // Quadratic key skew: popular customers order more.
                let u = unit(s_ord, i);
                let k = ((u * u) * keys as f64) as i64;
                let amount = 1 + (mix(s_ord, i ^ 0x5a5a) % 100) as i64;
                Record::new(Key::Int(k), Value::Int(amount))
            });
            let n_cust = scaled(SQL_CUSTOMERS, scale, 16).min(keys);
            let s_cust = mix(seed, 2);
            let gen_cust = generator(n_cust, move |i| {
                let region = (mix(s_cust, i) % 10) as i64;
                Record::new(Key::Int(i as i64), Value::Int(region))
            });
            let orders = ctx.text_file(
                &format!("jobs/orders-{bits:x}-{seed}"),
                n_orders * 18,
                gen_orders,
                GEN_COST,
                "sql_orders",
            );
            let customers = ctx.text_file(
                &format!("jobs/customers-{bits:x}-{seed}"),
                n_cust * 18,
                gen_cust,
                GEN_COST,
                "sql_customers",
            );
            vec![orders, customers]
        }
        JobKind::KMeans | JobKind::LogReg => {
            let n = scaled(ML_POINTS, scale, 64);
            let s = mix(seed, 3);
            let labelled = req.kind == JobKind::LogReg;
            let gen = generator(n, move |i| {
                let x = Value::vector_from(
                    (0..DIM).map(|d| 4.0 * unit(s, i * DIM as u64 + d as u64) - 2.0),
                );
                let value = if labelled {
                    // Linearly separable-ish labels from a fixed plane.
                    let y = if x.as_vector().iter().sum::<f64>() > 0.0 {
                        1
                    } else {
                        0
                    };
                    Value::Pair(Box::new(x), Box::new(Value::Int(y)))
                } else {
                    x
                };
                Record::new(Key::None, value)
            });
            let tag = if labelled { "lr_points" } else { "km_points" };
            let file = format!(
                "jobs/{}-{bits:x}-{seed}",
                if labelled { "lr" } else { "km" }
            );
            vec![ctx.text_file(&file, n * (16 + 8 * DIM as u64), gen, GEN_COST, tag)]
        }
    }
}

/// Appends the request's query over pre-built sources and collects it.
fn run_query(ctx: &mut Context, req: &JobRequest, sources: &[Rdd]) -> Vec<Record> {
    match req.kind {
        JobKind::WordCount => {
            let counts = ctx.count_by_key(sources[0], None, "wc_count");
            ctx.collect(counts, "wordcount")
        }
        JobKind::Sql => {
            let revenue = ctx.reduce_by_key(
                sources[0],
                Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int())),
                None,
                REDUCE_COST,
                "sql_revenue",
            );
            let joined = ctx.join(revenue, sources[1], None, JOIN_COST, "sql_join");
            ctx.collect(joined, "sql")
        }
        JobKind::KMeans => {
            let centers = fixed_centers(req.seed);
            let assigned = ctx.map(
                sources[0],
                Arc::new(move |r: &Record| {
                    let x = r.value.as_vector();
                    let mut best = 0usize;
                    let mut best_d = f64::INFINITY;
                    for (c, center) in centers.iter().enumerate() {
                        let d: f64 = x
                            .iter()
                            .zip(center.iter())
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum();
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    Record::new(
                        Key::Int(best as i64),
                        Value::Pair(Box::new(r.value.clone()), Box::new(Value::Int(1))),
                    )
                }),
                MAP_COST,
                "km_assign",
            );
            let summed =
                ctx.reduce_by_key(assigned, sum_vector_counts(), None, REDUCE_COST, "km_sum");
            let centroids = ctx.map_values(
                summed,
                Arc::new(|r: &Record| {
                    let (sum, count) = match &r.value {
                        Value::Pair(s, c) => (s.as_vector(), c.as_int() as f64),
                        other => panic!("expected (sum, count) pair, got {other:?}"),
                    };
                    let mean = Value::vector_from(sum.iter().map(|v| v / count));
                    Record::new(r.key.clone(), mean)
                }),
                MAP_COST,
                "km_centroid",
            );
            ctx.collect(centroids, "kmeans")
        }
        JobKind::LogReg => {
            let w = fixed_weights(req.seed);
            let grads = ctx.map(
                sources[0],
                Arc::new(move |r: &Record| {
                    let (x, y) = match &r.value {
                        Value::Pair(x, y) => (x.as_vector(), y.as_int() as f64),
                        other => panic!("expected (x, y) pair, got {other:?}"),
                    };
                    let dot: f64 = w.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
                    let sigma = 1.0 / (1.0 + (-dot).exp());
                    let g = Value::vector_from(x.iter().map(|xi| xi * (sigma - y)));
                    Record::new(Key::Int(0), g)
                }),
                MAP_COST,
                "lr_grad",
            );
            let total = ctx.reduce_by_key(grads, sum_vectors(), None, REDUCE_COST, "lr_sum");
            ctx.collect(total, "logreg")
        }
    }
}

/// K fixed k-means centers derived from the job seed.
fn fixed_centers(seed: u64) -> Arc<Vec<Vec<f64>>> {
    let s = mix(seed, 4);
    Arc::new(
        (0..KM_K)
            .map(|c| {
                (0..DIM)
                    .map(|d| 4.0 * unit(s, (c * DIM + d) as u64) - 2.0)
                    .collect()
            })
            .collect(),
    )
}

/// Fixed logistic-regression weight vector derived from the job seed.
fn fixed_weights(seed: u64) -> Arc<Vec<f64>> {
    let s = mix(seed, 5);
    Arc::new((0..DIM).map(|d| unit(s, d as u64) - 0.5).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_file::JobKind;

    fn small_opts() -> EngineOptions {
        EngineOptions {
            cluster: simcluster::uniform_cluster(2, 4, 2.0),
            default_parallelism: 6,
            block_size: 64 * 1024,
            workers: 2,
            ..EngineOptions::default()
        }
    }

    const KINDS: [JobKind; 4] = [
        JobKind::WordCount,
        JobKind::Sql,
        JobKind::KMeans,
        JobKind::LogReg,
    ];

    #[test]
    fn word_keys_are_the_formatted_text() {
        for w in [0, 7, 42, 399, 99_999, 100_000, u64::MAX] {
            assert_eq!(word_key(w), Key::str(&format!("w{w:05}")));
        }
    }

    #[test]
    fn every_word_record_carries_its_own_words_key() {
        let (n, vocab, s) = (5_000, 130, mix(9, 0));
        let gen = words(n, vocab, s);
        for parts in [1, 7] {
            let mut got = Vec::new();
            for part in 0..parts {
                gen(part, parts, &mut got);
            }
            let want: Vec<Record> = (0..n)
                .map(|i| {
                    let w = word_of(s, vocab, i);
                    Record::new(Key::str(&format!("w{w:05}")), Value::Int(1))
                })
                .collect();
            assert_eq!(got, want, "{parts} splits");
        }
    }

    fn req(kind: JobKind, scale: f64, seed: u64) -> JobRequest {
        JobRequest {
            id: 0,
            tenant: 0,
            at: 0.0,
            kind,
            scale,
            seed,
        }
    }

    #[test]
    fn every_kind_runs_and_is_deterministic() {
        for kind in KINDS {
            let mut a = TenantRuntime::new(small_opts());
            let mut b = TenantRuntime::new(small_opts());
            let r = req(kind, 0.2, 7);
            let oa = a.run(&r);
            let ob = b.run(&r);
            assert!(oa.rows > 0, "{kind:?} returned no rows");
            assert!(oa.t_solo > 0.0);
            assert_eq!(oa, ob, "{kind:?} not deterministic");
        }
    }

    #[test]
    fn repeat_jobs_hit_the_dataset_cache_and_match() {
        let mut rt = TenantRuntime::new(small_opts());
        let r = req(JobKind::Sql, 0.3, 9);
        let first = rt.run(&r);
        let second = rt.run(&r);
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(rt.cache_hits, 1);
        assert_eq!(first.hash, second.hash);
        assert_eq!(first.rows, second.rows);
        // Cached sources skip the generate stage, so the repeat is faster.
        assert!(second.t_solo <= first.t_solo);
        // Told nothing of its future, the runtime keeps what it built.
        assert_eq!(rt.ctx.mem_counters().released, 0);
        assert!(rt.run(&r).cache_hit);
    }

    /// Cached source RDDs per dataset of `kind`.
    fn sources_of(kind: JobKind) -> u64 {
        if kind == JobKind::Sql {
            2
        } else {
            1
        }
    }

    /// Whether the runtime's context holds no cached partition and no
    /// dataset is booked.
    fn holds_nothing(rt: &TenantRuntime) -> bool {
        rt.datasets.is_empty() && rt.ctx.sim().resident_bytes().iter().all(|&b| b == 0)
    }

    #[test]
    fn a_declared_dataset_is_released_right_after_its_last_job() {
        for kind in KINDS {
            let (a, b) = (req(kind, 0.2, 7), req(JobKind::LogReg, 0.1, 8));
            let mut rt = TenantRuntime::new(small_opts());
            for r in [&a, &a, &b] {
                rt.expect(r);
            }
            let released = |rt: &TenantRuntime| rt.ctx.mem_counters().released;
            let first = rt.run(&a);
            assert_eq!(released(&rt), 0, "{kind:?}: A has one more job");
            assert!(!holds_nothing(&rt), "{kind:?}: A is cached");
            let second = rt.run(&a);
            assert!(!first.cache_hit && second.cache_hit, "{kind:?}");
            assert_eq!((first.rows, first.hash), (second.rows, second.hash));
            assert_eq!(released(&rt), sources_of(kind), "{kind:?}: after A's last");
            assert!(holds_nothing(&rt), "{kind:?}: after A's last");
            // B has one job, so it is streamed: nothing cached, nothing to
            // release.
            assert!(!rt.run(&b).cache_hit);
            assert_eq!(released(&rt), sources_of(kind), "{kind:?}: after B's");
            assert!(holds_nothing(&rt), "{kind:?}: after B's");
            assert_eq!((rt.cache_hits, rt.cache_misses), (1, 2), "{kind:?}");
        }
    }

    #[test]
    fn a_single_use_dataset_is_streamed_and_answers_like_a_cached_one() {
        for kind in KINDS {
            let r = req(kind, 0.2, 7);
            let mut streamed = TenantRuntime::new(small_opts());
            streamed.expect(&r);
            let mut cached = TenantRuntime::new(small_opts());
            let (got, want) = (streamed.run(&r), cached.run(&r));
            assert_eq!(
                (got.rows, got.hash, got.cache_hit),
                (want.rows, want.hash, want.cache_hit),
                "{kind:?}"
            );
            assert_eq!(got.t_solo.to_bits(), want.t_solo.to_bits(), "{kind:?}");
            assert_eq!(got.cores.to_bits(), want.cores.to_bits(), "{kind:?}");
            assert!(holds_nothing(&streamed), "{kind:?}: streamed");
            assert_eq!(streamed.ctx.mem_counters().released, 0, "{kind:?}");
            // The runtime told nothing did materialize what it built.
            assert!(!holds_nothing(&cached), "{kind:?}: cached");
        }
    }

    #[test]
    fn a_survivor_of_skipped_siblings_is_streamed() {
        let a = req(JobKind::Sql, 0.2, 7);
        let mut rt = TenantRuntime::new(small_opts());
        for _ in 0..3 {
            rt.expect(&a);
        }
        // Two of the three are rejected before any runs: the survivor is
        // the dataset's only reader.
        rt.skip(&a);
        rt.skip(&a);
        let got = rt.run(&a);
        assert!(!got.cache_hit);
        assert!(holds_nothing(&rt));
        assert_eq!(rt.ctx.mem_counters().released, 0);
        let alone = TenantRuntime::new(small_opts()).run(&a);
        assert_eq!((got.rows, got.hash), (alone.rows, alone.hash));
    }

    #[test]
    fn the_fingerprint_is_fnv_over_each_rows_debug_text_and_a_newline() {
        let rows = vec![
            Record::new(Key::str("w00042"), Value::Int(-3)),
            Record::new(Key::Int(7), Value::Float(0.1)),
            Record::new(Key::Int(-1), Value::Float(f64::NAN)),
            Record::new(
                Key::Int(0),
                Value::Pair(
                    Box::new(Value::vector(vec![1.5, -2.0])),
                    Box::new(Value::Int(9)),
                ),
            ),
            Record::new(Key::None, Value::vector(vec![0.25; 4])),
            Record::new(Key::str(""), Value::str("text \"quoted\"")),
        ];
        let mut text = String::new();
        for rec in &rows {
            text.push_str(&format!("{rec:?}"));
            text.push('\n');
        }
        assert_eq!(fingerprint(&rows), engine::record::fnv1a(text.as_bytes()));
        assert_eq!(fingerprint(&[]), Fnv::new().finish());
    }

    #[test]
    fn a_skipped_job_gives_its_reference_back() {
        let a = req(JobKind::Sql, 0.2, 7);
        let mut rt = TenantRuntime::new(small_opts());
        for _ in 0..3 {
            rt.expect(&a);
        }
        rt.run(&a);
        // A rejected job that is not the dataset's last keeps it cached.
        rt.skip(&a);
        assert_eq!(rt.ctx.mem_counters().released, 0);
        // Rejecting the last one releases it, as running it would have.
        rt.skip(&a);
        assert_eq!(rt.ctx.mem_counters().released, sources_of(JobKind::Sql));
        // A dataset never built has nothing to release.
        let never = req(JobKind::KMeans, 0.2, 7);
        rt.expect(&never);
        rt.skip(&never);
        assert_eq!(rt.ctx.mem_counters().released, sources_of(JobKind::Sql));
    }

    #[test]
    fn scales_a_thousandth_apart_are_different_datasets() {
        // Both round to 100 thousandths, but size 3,012 and 3,003 records.
        let jobs = [0.1004, 0.1001].map(|scale| req(JobKind::WordCount, scale, 5));
        let alone = jobs
            .each_ref()
            .map(|r| TenantRuntime::new(small_opts()).run(r));
        assert_ne!(alone[0].hash, alone[1].hash, "different data");
        for order in [[0, 1], [1, 0]] {
            let mut rt = TenantRuntime::new(small_opts());
            for i in order {
                let got = rt.run(&jobs[i]);
                assert!(!got.cache_hit, "order {order:?}, job {i}");
                // A job's result is its own whatever ran before it.
                assert_eq!(
                    (got.rows, got.hash),
                    (alone[i].rows, alone[i].hash),
                    "order {order:?}, job {i}"
                );
            }
            assert_eq!((rt.cache_hits, rt.cache_misses), (0, 2));
        }
    }

    #[test]
    fn results_are_independent_of_workers() {
        let r = req(JobKind::KMeans, 0.25, 3);
        let base = TenantRuntime::new(EngineOptions {
            workers: 1,
            ..small_opts()
        })
        .run(&r);
        for workers in [4, 2] {
            let got = TenantRuntime::new(EngineOptions {
                workers,
                ..small_opts()
            })
            .run(&r);
            assert_eq!(got.rows, base.rows);
            assert_eq!(got.hash, base.hash);
            assert_eq!(got.t_solo.to_bits(), base.t_solo.to_bits());
        }
    }

    #[test]
    fn mem_demand_is_monotone_in_scale() {
        for kind in KINDS {
            assert!(mem_demand(kind, 0.1) <= mem_demand(kind, 0.9));
            assert!(mem_demand(kind, 1.0) > 1 << 20);
        }
    }
}
