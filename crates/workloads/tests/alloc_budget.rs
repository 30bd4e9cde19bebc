//! Heap allocations of the three vector-sum jobs, counted — the guard on
//! "accumulate allocates nothing per record" where wall-clock cannot be
//! one: a count repeats exactly, a timing on a shared host does not.
//!
//! A counting `#[global_allocator]` wraps the system one (hence a test
//! binary of its own, with a single test so nothing else allocates
//! meanwhile). Each workload runs at its `small()` configuration on
//! `workers: 1`; the between-jobs re-plan hook — called after every job,
//! deciding nothing here — marks the counter, so one job's allocations are
//! the difference of two marks. The counts are pinned exactly (per input
//! record of the job's map stage in brackets):
//!
//! | job (map + reduce stage)            | records | before         | after         |
//! |-------------------------------------|--------:|---------------:|--------------:|
//! | KMeans `assign` + `update`          |   8 000 |  64 286 (8.04) | 16 350 (2.04) |
//! | PCA `cov-rows` + `cov-reduce`       |   6 000 | 132 295 (22.05)| 42 305 (7.05) |
//! | LogReg `gradient` + `sum-gradients` |   6 000 |  30 312 (5.05) |  6 328 (1.05) |
//!
//! "Before" is the same test at the parent commit (`ReduceFn` by value,
//! `Value::Vector(Arc<Vec<f64>>)`, maps re-keying with `x.to_vec()`).
//! What is left per record is what the record model itself costs: the two
//! boxes of a `Value::Pair` (KMeans), the flat-map's output vector, its
//! centered point and one allocation per emitted row (PCA, `dim` = 5), the
//! gradient vector (LogReg). The fraction is per-task and per-job work.
//! Debug and release builds count the same.

use engine::{EngineOptions, ReplanHook, ReplanInput, WorkloadConf};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use workloads::{KMeans, KMeansConfig, LogReg, LogRegConfig, Pca, PcaConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state. `realloc`
// and `alloc_zeroed` keep their default bodies, which go through `alloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Runs `run` under options whose re-plan hook marks the allocation
/// counter after every job, and returns the allocations of the first job
/// named `job` with the records its first stage read.
fn job_allocations(job: &str, run: impl FnOnce(&EngineOptions) -> engine::Context) -> (u64, u64) {
    let marks = Arc::new(Mutex::new(Vec::with_capacity(256)));
    let hook: ReplanHook = {
        let marks = Arc::clone(&marks);
        Arc::new(move |_: &ReplanInput| {
            let mut marks = marks.lock().expect("no panic under the lock");
            assert!(marks.len() < marks.capacity(), "a push would allocate");
            marks.push(ALLOCATIONS.load(Ordering::Relaxed));
            None
        })
    };
    let ctx = run(&EngineOptions {
        cluster: simcluster::uniform_cluster(3, 4, 2.0),
        default_parallelism: 12,
        workers: 1,
        replan: Some(hook),
        ..EngineOptions::default()
    });
    let marks = marks.lock().expect("no panic under the lock");
    let at = ctx
        .jobs()
        .iter()
        .position(|j| j.name == job)
        .expect("the job ran");
    assert!(at > 0, "a job before it marks its start");
    (
        marks[at] - marks[at - 1],
        ctx.jobs()[at].stages[0].input_records,
    )
}

#[test]
fn vector_sum_jobs_stay_within_their_allocation_budget() {
    let conf = WorkloadConf::new();
    let kmeans = job_allocations("iteration", |o| {
        KMeans::new(KMeansConfig::small())
            .execute(o, &conf, 1.0)
            .ctx
    });
    let pca = job_allocations("covariance", |o| {
        Pca::new(PcaConfig::small()).execute(o, &conf, 1.0).ctx
    });
    let logreg = job_allocations("iteration", |o| {
        LogReg::new(LogRegConfig::small())
            .execute(o, &conf, 1.0)
            .ctx
    });
    assert_eq!(
        [kmeans, pca, logreg],
        [(16_350, 8_000), (42_305, 6_000), (6_328, 6_000)],
        "(allocations, input records) of KMeans assign+update, PCA cov-rows+cov-reduce, \
         LogReg gradient+sum-gradients"
    );
}
