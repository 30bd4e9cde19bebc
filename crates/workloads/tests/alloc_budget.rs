//! Heap allocations of whole workload runs, counted — the guard on
//! "accumulate allocates nothing per record", "a producer emits, it does
//! not return" and "an accumulator allocates nothing per distinct key"
//! where wall-clock cannot be one: a count repeats exactly, a timing on a
//! shared host does not.
//!
//! A counting `#[global_allocator]` wraps the system one (hence a test
//! binary of its own, with a single test) and counts the allocations of
//! the thread that drives the run. Each workload runs at its `small()`
//! configuration on `workers: 1` and is counted whole, from its start
//! until it hands back its context. The counts are pinned exactly:
//!
//! | run (every job)          | source records | allocations | before the point kernels (what fell)        |
//! |--------------------------|---------------:|------------:|----------------------------------------------|
//! | KMeans                   |          8 800 |      42 105 | 42 138 (−6 reads, −14 keys, −13 centers)     |
//! | PCA                      |          6 300 |      25 262 | 31 276 (−4 reads, −10 keys, −6 000 centered) |
//! | LogReg                   |          6 000 |     194 864 | 195 108 (−60 reads, −183 keys)               |
//! | SQL                      |         12 000 |       2 738 | 2 761 (−4 reads, −14 keys)                   |
//! | … the same at scale 0.5  |          6 000 |       2 335 | 2 358 (−4 reads, −15 keys)                   |
//!
//! One allocation per record in any job adds thousands to a row. The two
//! SQL rows hold the slope: 403 allocations for 6 000 more generated rows,
//! 0.07 a row, the combiners', the merges' and the join's tables growing
//! with the keys drawn — under the 0.1 the last assertion allows. Debug
//! and release builds count the same.
//!
//! The last column is the count before the point kernels, and what each
//! of their changes removed, measured one change at a time: *reads*, two
//! vectors per shuffle — the reading stage's list of the shuffles it
//! reads, and the plan's count of one shuffle's reads, which collected
//! such a list for every shuffle-reading stage (both are an iterator now;
//! KMeans reads 3 shuffles, PCA 2, LogReg 30, SQL 2); *keys*, the hash
//! tables the combines' and the reduce tasks' key indexes grew for keys
//! that are small integers (clusters, covariance rows, pseudo-keys, SQL's
//! low key ids), which now find their slot in the index's fixed array; *centers*, KMeans' centers
//! copied into one dimension-major vector instead of a `Vec<Vec<f64>>`
//! (1 + k = 5 vectors) per `assign` (−4 each, twice) and per
//! `final-assign` (−5); *centered*, PCA's centered point, one per point,
//! now on the stack.
//!
//! The rows fell (42 159, 31 290, 195 290, 2 768, 2 365 before) when a
//! stage's tasks became its partitions again and the hot-partition
//! splitter went: one allocation per stage, its task-to-last-spec map,
//! and per shuffle-reading stage the plan's count of that shuffle's reads
//! (one) and, where the stage caches nothing, the split decision's byte
//! column, its float copy and its sub counts (three). KMeans has 9 stages
//! and 3 shuffle reads (−21), PCA 6 and 2 (−14), LogReg 62 and 30 (−182);
//! SQL's 5 stages read 2 shuffles into cached aggregates (−7 at both
//! scales).
//!
//! They fell again (194 865, 2 743, 2 339 before) when the map-side
//! combine became a `ReduceMerge` followed by one lay-out: the worker's
//! partition-assignment vector is reserved for a task's survivors at once,
//! where the combine pushed into it key by key and grew it by doubling
//! (LogReg −1, SQL −5 and −4; with the reserve taken out the counts are
//! the old ones). Nothing per record or per key moved.
//!
//! Until the engine stopped calling a between-jobs hook, that hook marked
//! the counter after every job, and this test pinned single jobs (per
//! input record of the job's map stage in brackets). What each of those
//! counts bought:
//!
//! | job (map + reduce stage)            | records | by-value reduce | in-place reduce | emitting producers | one key table |   sparse runs |    one layout | guided draws | one stage record |
//! |-------------------------------------|--------:|----------------:|----------------:|-------------------:|--------------:|--------------:|--------------:|-------------:|-----------------:|
//! | KMeans `assign` + `update`          |   8 000 |   64 286 (8.04) |   16 350 (2.04) |      16 350 (2.04) | 16 350 (2.04) | 16 334 (2.04) | 16 333 (2.04) | 16 333 (2.04) |    16 331 (2.04) |
//! | PCA `cov-rows` + `cov-reduce`       |   6 000 | 132 295 (22.05) |   42 305 (7.05) |      12 353 (2.06) | 12 352 (2.06) | 12 336 (2.06) | 12 335 (2.06) | 12 335 (2.06) |    12 333 (2.06) |
//! | LogReg `gradient` + `sum-gradients` |   6 000 |   30 312 (5.05) |    6 328 (1.05) |       6 328 (1.05) |  6 326 (1.05) |  6 308 (1.05) |  6 307 (1.05) |  6 307 (1.05) |     6 305 (1.05) |
//! | SQL `scan-orders` + `agg-orders`    |   8 000 |               — |   17 023 (2.13) |       1 035 (0.13) |    682 (0.09) |    659 (0.08) |    658 (0.08) |    659 (0.08) |       656 (0.08) |
//! | … the same at scale 0.5             |   4 000 |               — |    8 917 (2.23) |         929 (0.23) |    647 (0.16) |    624 (0.16) |    623 (0.16) |    624 (0.16) |       621 (0.16) |
//! | SQL `join-revenue` (one stage)      |     724 |               — |               — |       2 059 (2.84) |  1 592 (2.20) |  1 568 (2.17) |  1 568 (2.17) |  1 568 (2.17) |      1 567 (2.16) |
//!
//! Each column is the same test one commit on: `ReduceFn` by value with
//! `Value::Vector(Arc<Vec<f64>>)`; the in-place `Reduce` with
//! `Arc<[f64]>`; generators and flat-maps that push into the task's sink
//! (`engine::Emit`) instead of returning a `Vec`; the reduce-side
//! accumulators sharing the combine's chained first-seen index instead of
//! each keeping a `Vec<u32>` of slots per distinct key; a map task listing
//! its non-empty runs in one vector instead of `P + 1` offsets and `P` byte
//! counts, and the driver aggregating a task's fetches by sorting one
//! vector instead of filling a `HashMap`; one record layout. The sparse-runs
//! column's falls are
//! per-task bookkeeping — no per-record cost moved; the join's 24 are its
//! 12 tasks' two-sided fetch tables, now merged in the vector they arrive
//! in. The "one layout" column's fall of one per shuffle is the map
//! outputs' index: with the columnar layout gone a stored map output is
//! the task's record vector, no larger than the write that carried it, so
//! collecting the writes into the shuffle table reuses their vector in
//! place (the join, which shuffles nothing, keeps its count). The "guided
//! draws" column's rise of one in the SQL job is its key table: the
//! workload builds the Zipf CDF and its guide (two vectors) once, in one
//! shared `Arc`, where the `orders` generator built the CDF and its
//! closure's copy cloned it (each SQL count here runs a fresh workload
//! value, so none of them finds the table built). The "one stage record"
//! column's falls are the re-plan hook's input: it is handed the job's
//! own stage metrics instead of a copy, which saves per job the copy's
//! vector (every job, −1), per shuffle-writing stage the byte columns the
//! copy collected for its write skew (now one pass over the shuffle's run
//! index, allocating nothing; −1), and per block-source stage the
//! partition count the copy resolved again, a clone of the file's block
//! list (SQL's one block and its replica list, −2). The SQL job, its
//! workload's first, also counts its own name now (+1): the job's record
//! is built before the hook is called, not after. What is
//! left per record is what the record model itself costs: the two boxes of a
//! `Value::Pair` (KMeans), the one scratch row `cov-rows` lends `dim` = 5
//! times (PCA; it was the flat-map's output vector, the centered point and
//! a vector per row), the gradient vector
//! (LogReg). A SQL row costs nothing: `TableGen::stream` lends one scratch
//! row, the projection reads it, the combine folds a float. The SQL job is
//! its workload's first, so its count carries the context's and the
//! generator's construction; the ~650 allocations it does not shed with
//! its rows are that and the per-task work of 24 tasks, and the slope —
//! 35 allocations for 4 000 more rows, 0.009 a row, the combiners' and
//! the merges' tables growing — is what the last assertion holds under
//! 0.1. The "one key table" column's fall there, 353, is the allocation
//! per distinct key reaching `agg-orders` (410 of the 500 keys are drawn)
//! less the growth of the index's own chain vector in 12 reduce tasks. The `join`
//! job is one stage: both aggregates are cached by the jobs before it, so
//! its 12 tasks read the 410 + 314 totals as co-partitioned narrow sides
//! and emit 279 matches; per key it keeps what the grouping table and the
//! output cost — the left and the right value list and the two boxes of
//! the joined `Value::Pair`. The fractions elsewhere are per-task and
//! per-job work too.

use engine::{Context, EngineOptions, StageKind, WorkloadConf};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::{KMeans, KMeansConfig, LogReg, LogRegConfig, Pca, PcaConfig, Sql, SqlConfig};

struct Counting;

thread_local! {
    /// Allocations made by this thread. On `workers: 1` a run allocates
    /// only on the thread that drives it; the test harness's own threads
    /// allocate meanwhile, at times that vary, and are not counted.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a constant-initialized thread
// local without a destructor, so touching it allocates nothing. `realloc`
// and `alloc_zeroed` keep their default bodies, which go through `alloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations of one whole run of a workload, from its start until
/// it hands back its context, and the records its source stages read.
fn run_allocations(run: impl FnOnce(&EngineOptions) -> Context) -> (u64, u64) {
    let opts = EngineOptions {
        cluster: simcluster::uniform_cluster(3, 4, 2.0),
        default_parallelism: 12,
        workers: 1,
        ..EngineOptions::default()
    };
    let start = allocations();
    let ctx = run(&opts);
    let allocations = allocations() - start;
    let stages = ctx.all_stages().into_iter();
    let records = stages
        .filter(|s| s.kind == StageKind::Source)
        .map(|s| s.input_records)
        .sum();
    (allocations, records)
}

#[test]
fn vector_sum_jobs_stay_within_their_allocation_budget() {
    let conf = WorkloadConf::new();
    let kmeans = run_allocations(|o| {
        KMeans::new(KMeansConfig::small())
            .execute(o, &conf, 1.0)
            .ctx
    });
    let pca = run_allocations(|o| Pca::new(PcaConfig::small()).execute(o, &conf, 1.0).ctx);
    let logreg = run_allocations(|o| {
        LogReg::new(LogRegConfig::small())
            .execute(o, &conf, 1.0)
            .ctx
    });
    let sql =
        |scale: f64| run_allocations(|o| Sql::new(SqlConfig::small()).execute(o, &conf, scale).ctx);
    let (sql_full, sql_half) = (sql(1.0), sql(0.5));
    assert_eq!(
        [kmeans, pca, logreg, sql_full, sql_half],
        [
            (42_105, 8_800),
            (25_262, 6_300),
            (194_864, 6_000),
            (2_738, 12_000),
            (2_335, 6_000)
        ],
        "(allocations, source records) of a whole KMeans, PCA, LogReg run, and SQL at \
         scale 1 and 0.5"
    );
    assert!(
        (sql_full.0 - sql_half.0) * 10 < sql_full.1 - sql_half.1,
        "a generated SQL row costs under 0.1 allocations"
    );
}
