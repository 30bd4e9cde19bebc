//! Persistent work-stealing thread pool for real data computation.
//!
//! The engine's hybrid execution model computes task *data* on host threads
//! while task *timing* comes from the simulated cluster. Before this pool,
//! every stage spawned fresh scoped threads and parked each result behind
//! its own mutex; a multi-stage job paid thread start-up and teardown per
//! stage. [`WorkerPool`] is built once per [`Context`](crate::Context) and
//! reused for every stage-compute and shuffle-write fan-out.
//!
//! Design:
//!
//! - **Chunked work-stealing.** `map(n, f)` splits `0..n` into one
//!   contiguous block per participant. Each participant claims chunks from
//!   its own block with a `fetch_add` cursor, then steals chunks from other
//!   blocks when its own runs dry — cheap load balancing without a shared
//!   deque. Output order is by index, so results are deterministic
//!   regardless of which thread computed what.
//! - **Caller participation.** The calling thread works too (participant
//!   0), so `workers = 1` runs fully inline with zero synchronization, and
//!   a pool of `w` workers uses `w - 1` background threads.
//! - **Zero-allocation dispatch of borrowed closures.** Jobs borrow the
//!   caller's stack (`f` may capture non-`'static` references). The pool
//!   erases the job type by passing the job context's address as a
//!   `usize` into an `Arc<dyn Fn>` trampoline. This is sound because
//!   `map` does not return until every participant has signalled
//!   completion of the epoch, so the context outlives all accesses.
//! - **Panic propagation.** A panicking task poisons the job: other
//!   participants stop claiming chunks, and the first payload is re-thrown
//!   on the caller after the epoch drains.
//! - **Multi-context sharing.** One pool may back several [`crate::Context`]s at
//!   once (the job server runs every tenant's data plane on a single
//!   pool). Dispatches from different calling threads serialize on an
//!   internal mutex at epoch granularity, and [`WorkerPool::map_capped`]
//!   bounds how many participants one epoch may occupy, so a tenant's
//!   weighted share of the pool can be enforced without splitting threads.

use crate::shuffle::TaskArena;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use trace::{pids, Clock, PoolCounters, TraceSink, Track};

/// A persistent pool of `workers` compute lanes (the caller plus
/// `workers - 1` background threads).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Background threads (not counting the caller).
    threads: usize,
    /// Serializes epoch dispatch across calling threads: only one `map`
    /// owns the background participants at a time, so several contexts
    /// can safely share one pool.
    dispatch: Mutex<()>,
    /// Wall-clock diagnostic sink ([`pids::POOL`] counters).
    sink: TraceSink,
    /// One reusable [`TaskArena`] per participant: scratch allocations for
    /// the shuffle write survive across tasks instead of being re-allocated
    /// per call. Items dispatched via [`WorkerPool::map_with`] receive
    /// their participant id and take that participant's arena for the
    /// length of the item (see [`WorkerPool::with_arena`]).
    arenas: Vec<Mutex<TaskArena>>,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Wakes background threads when a job is posted or on shutdown.
    job_posted: Condvar,
    /// Wakes the caller when the last background participant finishes.
    job_drained: Condvar,
    /// Lifetime scheduling counters (see [`WorkerPool::stats`]).
    jobs: AtomicU64,
    items: AtomicU64,
    stolen: AtomicU64,
    idle_epochs: AtomicU64,
}

struct PoolState {
    /// Bumped once per dispatched job; threads run each epoch exactly once.
    epoch: u64,
    /// Trampoline for the current epoch; receives the participant id.
    job: Option<Arc<dyn Fn(usize) + Send + Sync>>,
    /// Background participants still inside the current epoch.
    active: usize,
    shutdown: bool,
}

/// Locks a mutex, ignoring poisoning: a panicking pool item is re-raised
/// on the dispatching thread once the epoch drains, and every value
/// guarded this way is valid at each step, so a second panic here would
/// only mask the first.
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl WorkerPool {
    /// Builds a pool with `workers` total compute lanes. `workers <= 1`
    /// spawns no threads; every `map` then runs inline on the caller.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool::with_trace(workers, TraceSink::disabled())
    }

    /// Like [`WorkerPool::new`], but also samples scheduling counters into
    /// `sink` (wall clock, [`pids::POOL`]) after every `map`.
    pub fn with_trace(workers: usize, sink: TraceSink) -> WorkerPool {
        if sink.is_enabled() {
            sink.name_process(pids::POOL, "executor pool (wall time)");
        }
        let threads = workers.max(1) - 1;
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            job_posted: Condvar::new(),
            job_drained: Condvar::new(),
            jobs: AtomicU64::new(0),
            items: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            idle_epochs: AtomicU64::new(0),
        });
        let handles = (0..threads)
            .map(|t| {
                let shared = Arc::clone(&shared);
                // Participant 0 is the caller; threads are 1-based.
                let participant = t + 1;
                std::thread::Builder::new()
                    .name(format!("engine-worker-{participant}"))
                    .spawn(move || worker_loop(&shared, participant))
                    .expect("spawn engine worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
            dispatch: Mutex::new(()),
            sink,
            arenas: (0..threads + 1).map(|_| Mutex::default()).collect(),
        }
    }

    /// Total compute lanes, including the caller.
    pub fn workers(&self) -> usize {
        self.threads + 1
    }

    /// Snapshot of lifetime scheduling counters.
    ///
    /// Invariant (asserted in tests): across all `map` calls, items
    /// executed by their block owner plus `stolen` equals `items`.
    pub fn stats(&self) -> PoolCounters {
        PoolCounters {
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            items: self.shared.items.load(Ordering::Relaxed),
            stolen: self.shared.stolen.load(Ordering::Relaxed),
            idle_epochs: self.shared.idle_epochs.load(Ordering::Relaxed),
        }
    }

    /// Records the current counters as wall-clock counter samples.
    fn sample_counters(&self) {
        if !self.sink.is_enabled() {
            return;
        }
        let now = self.sink.wall_now();
        let track = Track::new(pids::POOL, 0);
        let stats = self.stats();
        self.sink.counter(
            Clock::Wall,
            track,
            "pool.items",
            "pool",
            now,
            stats.items as f64,
        );
        self.sink.counter(
            Clock::Wall,
            track,
            "pool.stolen",
            "pool",
            now,
            stats.stolen as f64,
        );
        self.sink.counter(
            Clock::Wall,
            track,
            "pool.idle_epochs",
            "pool",
            now,
            stats.idle_epochs as f64,
        );
    }

    /// Runs `f(i)` for `i in 0..n` across the pool and returns the results
    /// in index order. Panics in `f` propagate to the caller after all
    /// participants stop.
    pub fn map<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.map_with(n, |i, _| f(i))
    }

    /// Runs `f` over the reusable scratch arena of `participant` (as
    /// reported to a [`WorkerPool::map_with`] closure). The arena is taken
    /// out of its slot and put back afterwards, so no lock is held while
    /// `f` runs — `f` may call user closures and block. A participant id
    /// is *not* exclusive to one thread: the inline path of
    /// [`WorkerPool::map_capped`] (a dispatch capped to one lane, or of one
    /// item) reports participant 0 to every calling thread, so all tenants
    /// of a shared pool meet on slot 0. A caller that finds the slot taken
    /// works over a fresh arena, and the last one back keeps its scratch.
    pub fn with_arena<T>(&self, participant: usize, f: impl FnOnce(&mut TaskArena) -> T) -> T {
        let slot = &self.arenas[participant];
        let mut arena = std::mem::take(&mut *lock(slot));
        let out = f(&mut arena);
        *lock(slot) = arena;
        out
    }

    /// Like [`WorkerPool::map`], but `f` also receives the id of the
    /// participant executing the item (`0..workers()`, stable for the
    /// lifetime of the pool), for access to per-participant scratch state
    /// such as [`WorkerPool::with_arena`].
    pub fn map_with<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, usize) -> U + Sync,
    {
        self.map_capped(n, usize::MAX, f)
    }

    /// Like [`WorkerPool::map_with`], but at most `cap` participants work
    /// on this epoch; the rest of the pool stays available to other
    /// dispatching threads only in the sense that they finish immediately
    /// (the epoch still serializes on the dispatch lock). `cap` is how the
    /// job server enforces a tenant's weighted share of the pool: a capped
    /// dispatch occupies `min(cap, workers())` lanes, leaving timing —
    /// which is simulated — untouched, so results are bit-identical for
    /// every cap value.
    pub fn map_capped<U, F>(&self, n: usize, cap: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, usize) -> U + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        self.shared.jobs.fetch_add(1, Ordering::Relaxed);
        self.shared.items.fetch_add(n as u64, Ordering::Relaxed);
        let participants = self.workers().min(cap.max(1)).min(n);
        if self.threads == 0 || participants == 1 {
            // Inline: the caller owns the whole range, nothing is stolen.
            let out = (0..n).map(|i| f(i, 0)).collect();
            self.sample_counters();
            return out;
        }

        // One epoch at a time: contexts sharing this pool queue here.
        let _dispatch = lock(&self.dispatch);
        let ctx = JobCtx::new(f, n, participants);
        // Sound only because JobCtx<U, F> is Sync (checked here) and `map`
        // blocks until the epoch drains, keeping `ctx` alive for all users
        // of this address.
        fn assert_sync<T: Sync>(_: &T) {}
        assert_sync(&ctx);
        let addr = &ctx as *const JobCtx<U, F> as usize;
        let trampoline: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(move |participant| {
            // Threads beyond the cap sit this epoch out (participant ids
            // are fixed per thread; the job context is sized to the cap).
            if participant >= participants {
                return;
            }
            let ctx = unsafe { &*(addr as *const JobCtx<U, F>) };
            ctx.run(participant);
        });

        {
            let mut st = lock(&self.shared.state);
            debug_assert_eq!(st.active, 0, "previous epoch fully drained");
            st.epoch += 1;
            st.job = Some(trampoline);
            st.active = self.threads;
            self.shared.job_posted.notify_all();
        }

        // The caller is participant 0.
        ctx.run(0);

        // Wait for the background participants, then drop the trampoline so
        // the erased pointer can never outlive `ctx`.
        {
            let mut st = lock(&self.shared.state);
            while st.active > 0 {
                st = self
                    .shared
                    .job_drained
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            st.job = None;
        }

        self.shared
            .stolen
            .fetch_add(ctx.stolen.load(Ordering::Relaxed) as u64, Ordering::Relaxed);
        self.sample_counters();
        ctx.into_results()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.job_posted.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, participant: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen_epoch {
                    seen_epoch = st.epoch;
                    break Arc::clone(st.job.as_ref().expect("job set with epoch"));
                }
                shared.idle_epochs.fetch_add(1, Ordering::Relaxed);
                st = shared
                    .job_posted
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        job(participant);
        drop(job);
        let mut st = lock(&shared.state);
        st.active -= 1;
        if st.active == 0 {
            shared.job_drained.notify_all();
        }
    }
}

/// Per-participant claim cursor over a contiguous index block.
struct Block {
    next: AtomicUsize,
    end: usize,
}

/// One `map` invocation's state, living on the caller's stack.
struct JobCtx<U, F> {
    f: F,
    n: usize,
    chunk: usize,
    blocks: Vec<Block>,
    /// Each participant appends `(index, value)` pairs to its own slot.
    results: Vec<Mutex<Vec<(usize, U)>>>,
    /// Items executed by a participant other than the block owner.
    stolen: AtomicUsize,
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<U: Send, F: Fn(usize, usize) -> U + Sync> JobCtx<U, F> {
    fn new(f: F, n: usize, participants: usize) -> JobCtx<U, F> {
        // Small chunks keep heavyweight stage tasks balanced; the floor
        // of 1 keeps index coverage exact.
        let chunk = (n / (participants * 8)).max(1);
        let per = n.div_ceil(participants);
        let blocks = (0..participants)
            .map(|p| Block {
                next: AtomicUsize::new((p * per).min(n)),
                end: ((p + 1) * per).min(n),
            })
            .collect();
        let results = (0..participants)
            .map(|p| Mutex::new(Vec::with_capacity(per * usize::from(p == 0))))
            .collect();
        JobCtx {
            f,
            n,
            chunk,
            blocks,
            results,
            stolen: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    fn run(&self, participant: usize) {
        let outcome = catch_unwind(AssertUnwindSafe(|| self.work(participant)));
        if let Err(payload) = outcome {
            self.poisoned.store(true, Ordering::SeqCst);
            // Halt all claim cursors so other participants drain quickly.
            for b in &self.blocks {
                b.next.store(self.n, Ordering::SeqCst);
            }
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }

    fn work(&self, participant: usize) {
        let participants = self.blocks.len();
        let mut local: Vec<(usize, U)> = Vec::new();
        let mut stolen = 0usize;
        // Own block first, then steal round-robin.
        for step in 0..participants {
            let owner = (participant + step) % participants;
            let block = &self.blocks[owner];
            loop {
                if self.poisoned.load(Ordering::Relaxed) {
                    break;
                }
                let start = block.next.fetch_add(self.chunk, Ordering::Relaxed);
                if start >= block.end {
                    break;
                }
                let stop = (start + self.chunk).min(block.end);
                if step > 0 {
                    stolen += stop - start;
                }
                for i in start..stop {
                    local.push((i, (self.f)(i, participant)));
                }
            }
        }
        if stolen > 0 {
            self.stolen.fetch_add(stolen, Ordering::Relaxed);
        }
        lock(&self.results[participant]).extend(local);
    }

    /// Consumes the context, re-throwing a captured panic or assembling
    /// results in index order.
    fn into_results(self) -> Vec<U> {
        if let Some(payload) = lock(&self.panic).take() {
            resume_unwind(payload);
        }
        let mut slots: Vec<Option<U>> = (0..self.n).map(|_| None).collect();
        for bucket in self.results {
            for (i, v) in bucket.into_inner().unwrap_or_else(|p| p.into_inner()) {
                debug_assert!(slots[i].is_none(), "index {i} computed twice");
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_covers_all() {
        let pool = WorkerPool::new(4);
        let out = pool.map(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert!(pool.map(0, |i| i).is_empty());
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        // Every item must run on the caller's own thread.
        let caller = std::thread::current().id();
        let out = pool.map(10, |i| {
            assert_eq!(std::thread::current().id(), caller);
            i + 1
        });
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3);
        for round in 0..50usize {
            let out = pool.map(37, |i| i + round);
            assert_eq!(out, (0..37).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn results_match_across_worker_counts() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 7;
        let expected: Vec<u64> = (0..1000).map(f).collect();
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.map(1000, f), expected, "workers = {workers}");
        }
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map(64, |i| {
                if i == 33 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(caught.is_err(), "panic must cross map()");
        // The pool still works after a poisoned job.
        assert_eq!(pool.map(8, |i| i * 2), vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn borrows_caller_stack_data() {
        let pool = WorkerPool::new(4);
        let data: Vec<u64> = (0..500).collect();
        let out = pool.map(data.len(), |i| data[i] + 1);
        assert_eq!(out.iter().sum::<u64>(), data.iter().sum::<u64>() + 500);
    }

    #[test]
    fn counters_reconcile_with_task_counts() {
        let pool = WorkerPool::new(4);
        let sizes = [100usize, 257, 1, 64, 0, 33];
        for &n in &sizes {
            // Uneven cost forces stealing on the larger jobs.
            let _ = pool.map(n, |i| {
                if i % 50 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i
            });
        }
        let stats = pool.stats();
        // n == 0 jobs are not dispatched; every other size counts once.
        let expect_jobs = sizes.iter().filter(|&&n| n > 0).count() as u64;
        let expect_items: u64 = sizes.iter().map(|&n| n as u64).sum();
        assert_eq!(stats.jobs, expect_jobs);
        assert_eq!(stats.items, expect_items);
        // Stolen items are a subset of all items: own + stolen == items.
        assert!(
            stats.stolen <= stats.items,
            "stolen {} exceeds items {}",
            stats.stolen,
            stats.items
        );
    }

    #[test]
    fn traced_pool_samples_counters_per_job() {
        let sink = trace::TraceSink::enabled();
        let pool = WorkerPool::with_trace(4, sink.clone());
        pool.map(64, |i| i);
        pool.map(16, |i| i);
        let counter_samples = sink
            .events()
            .iter()
            .filter(|e| e.name == "pool.items")
            .count();
        assert_eq!(counter_samples, 2, "one items sample per map call");
        // All pool events live on the wall clock.
        assert!(sink.events().iter().all(|e| e.clock == trace::Clock::Wall));
        let stats = pool.stats();
        assert_eq!(stats.items, 80);
    }

    #[test]
    fn map_with_reports_valid_participants_and_arenas_are_usable() {
        use crate::partitioner::HashPartitioner;
        use crate::record::{Key, Record, Value};
        let pool = WorkerPool::new(4);
        let records: Vec<Record> = (0..64)
            .map(|i| Record::new(Key::Int(i % 7), Value::Int(i)))
            .collect();
        let p = HashPartitioner::new(4);
        let fresh = &mut crate::shuffle::TaskArena::default();
        let expected = crate::shuffle::bucketize_owned_in(records.clone(), &p, None, fresh).0;
        let out = pool.map_with(32, |i, participant| {
            assert!(participant < pool.workers());
            let (tb, _) = pool.with_arena(participant, |arena| {
                crate::shuffle::bucketize_owned_in(records.clone(), &p, None, arena)
            });
            (i, tb.bytes)
        });
        for (i, (idx, bytes)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*bytes, expected.bytes);
        }
    }

    #[test]
    fn map_capped_limits_participants_and_preserves_results() {
        let pool = WorkerPool::new(8);
        let expected: Vec<usize> = (0..300).map(|i| i * 3).collect();
        for cap in [1, 2, 4, usize::MAX] {
            let out = pool.map_capped(300, cap, |i, participant| {
                assert!(
                    participant < cap.min(pool.workers()),
                    "participant {participant} exceeds cap {cap}"
                );
                i * 3
            });
            assert_eq!(out, expected, "cap = {cap}");
        }
        // cap 0 is clamped to 1 (inline) rather than deadlocking.
        assert_eq!(pool.map_capped(5, 0, |i, _| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_dispatch_from_many_threads_is_safe() {
        // Several contexts sharing one pool dispatch epochs concurrently;
        // the dispatch lock serializes them and every map stays correct.
        let pool = std::sync::Arc::new(WorkerPool::new(4));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..25usize {
                        let out = pool.map(97, |i| i + t * 1000 + round);
                        let expect: Vec<usize> = (0..97).map(|i| i + t * 1000 + round).collect();
                        assert_eq!(out, expect);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.items, 4 * 25 * 97);
    }

    #[test]
    fn stealing_covers_unbalanced_blocks() {
        // One expensive item per block forces fast participants to steal
        // the cheap remainder; coverage must stay exact.
        let pool = WorkerPool::new(4);
        let out = pool.map(257, |i| {
            if i % 64 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }
}
