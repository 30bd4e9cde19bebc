//! The context itself: what it owns, how it is built, the RDD-builder
//! API it delegates to the lineage graph, configuration, accessors, and
//! the two actions. Everything a job does once an action fires lives in
//! the sibling modules.

use super::books::{FaultState, Ledger};
use super::dataplane::TaskRecords;
use super::options::EngineOptions;
use crate::config::WorkloadConf;
use crate::metrics::{JobMetrics, StageMetrics};
use crate::ops::{FilterFn, FlatMapFn, GenFn, MapFn, ReduceFn};
use crate::partitioner::PartitionerSpec;
use crate::pool::WorkerPool;
use crate::rdd::{Rdd, RddGraph};
use crate::record::{Record, Value};
use blockstore::BlockStore;
use faults::FaultCounters;
use simcluster::{NodeId, Simulation};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use trace::{pids, ArgValue, Clock, TraceSink, Track};

/// A trace lane the driver writes: its track, and the name the track gets
/// the first time something is recorded on it.
pub(super) type Lane = (Track, &'static str);

/// Stage spans.
pub(super) const STAGES: Lane = (Track::new(pids::DRIVER, 0), "stages");

/// The engine context: owns the lineage graph, the simulated cluster, the
/// block store, cached data, and all collected metrics.
pub struct Context {
    pub(super) graph: RddGraph,
    pub(super) sim: Simulation,
    pub(super) store: Arc<BlockStore>,
    pub(super) conf: WorkloadConf,
    pub(super) options: EngineOptions,
    /// Persistent compute pool; every stage's tasks fan out over these
    /// threads. Possibly shared with other
    /// contexts (see [`EngineOptions::shared_pool`]).
    pub(super) pool: Arc<WorkerPool>,
    /// Upper bound on pool lanes this context's dispatches may occupy
    /// (`usize::MAX` = unbounded). The job server retunes it between jobs
    /// to hand each tenant its weighted share of a shared pool. Affects
    /// only host-side parallelism, never virtual timing or results.
    slot_cap: Arc<AtomicUsize>,
    /// What is cached where, in memory or on disk: see [`Ledger`].
    pub(super) ledger: Ledger,
    pub(super) anchors: HashMap<(crate::partitioner::PartitionerKind, usize, usize), NodeId>,
    pub(super) jobs: Vec<JobMetrics>,
    pub(super) next_stage_id: usize,
    /// Fault-injection state (plan, pending events, recovery counters);
    /// `None` when running fault-free.
    pub(super) faults: Option<FaultState>,
}

impl Context {
    /// Creates a context over the given options.
    pub fn new(options: EngineOptions) -> Self {
        if let Err(msg) = options.validate() {
            panic!("invalid engine options: {msg}");
        }
        let mut sim = Simulation::new(options.cluster.clone());
        if let Some(multiplier) = options.faults.as_ref().and_then(|p| p.speculation) {
            sim.enable_speculation(multiplier);
        }
        let store = Arc::new(BlockStore::with_config(
            options.cluster.num_nodes(),
            options.block_size,
            3,
        ));
        let pool = match &options.shared_pool {
            Some(shared) => Arc::clone(shared),
            None => Arc::new(WorkerPool::with_trace(
                options.workers,
                options.trace.clone(),
            )),
        };
        options
            .trace
            .name_process(pids::DRIVER, "driver (virtual time)");
        let ledger = Ledger::new(options.cluster.num_nodes(), options.executor_mem);
        let faults = options.faults.clone().map(FaultState::new);
        Context {
            graph: RddGraph::new(),
            sim,
            store,
            conf: WorkloadConf::new(),
            options,
            pool,
            slot_cap: Arc::new(AtomicUsize::new(usize::MAX)),
            ledger,
            anchors: HashMap::new(),
            jobs: Vec::new(),
            next_stage_id: 0,
            faults,
        }
    }

    /// Snapshot of the fault-recovery counters (injected failures,
    /// retries, recomputed map tasks, re-homed partitions). All zero when
    /// no fault plan is installed.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(|f| f.counters.clone())
            .unwrap_or_default()
    }

    /// The persistent compute pool backing this context.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Shared handle to this context's pool-lane cap. The job server holds
    /// one per tenant and retunes it (weighted fair share of a shared
    /// pool) between jobs; `usize::MAX` means unbounded. Caps change host
    /// parallelism only — virtual timings and results are unaffected.
    pub fn slot_cap_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.slot_cap)
    }

    /// Current pool-lane cap for this context's dispatches.
    pub(super) fn lane_cap(&self) -> usize {
        self.slot_cap.load(Ordering::Relaxed).max(1)
    }

    /// The execution-trace sink this context records into (disabled unless
    /// set via [`EngineOptions::trace`]).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.options.trace
    }

    /// The one way the driver gets a trace lane: `lane`'s track, named the
    /// first time anything lands on it, or `None` with tracing off — so a
    /// caller builds no label it will not record.
    pub(super) fn lane(&self, (track, name): Lane) -> Option<Track> {
        let sink = &self.options.trace;
        if !sink.is_enabled() {
            return None;
        }
        if !sink.has_thread_name(track) {
            sink.name_thread(track, name);
        }
        Some(track)
    }

    /// Records an instant on `lane` at the current virtual time; `event`
    /// builds its label and arguments.
    pub(super) fn emit(
        &self,
        lane: Lane,
        cat: &'static str,
        event: impl FnOnce() -> (String, Vec<(&'static str, ArgValue)>),
    ) {
        if let Some(track) = self.lane(lane) {
            let (name, args) = event();
            let now = self.sim.clock();
            self.options
                .trace
                .instant(Clock::Virtual, track, name, cat, now, args);
        }
    }

    /// The run's stage table: one row per stage of every job so far, then
    /// the `memory:` line when an executor-memory budget is set and the
    /// `faults:` line when a fault plan is installed. Every column is
    /// virtual-clock or bytes, so the text is identical across host worker
    /// counts and reruns. The one renderer every command prints.
    pub fn report(&self) -> String {
        let mut out = format!(
            "{:>5} {:>16} {:>6} {:>10} {:>12} {:>12} {:>8}\n",
            "stage", "name", "tasks", "time", "shuffle KB", "remote KB", "skew"
        );
        for s in self.all_stages() {
            out += &format!(
                "{:>5} {:>16} {:>6} {:>9.2}s {:>12.1} {:>12.1} {:>8.2}\n",
                s.stage_id,
                s.name,
                s.num_tasks,
                s.duration(),
                s.shuffle_data() as f64 / 1024.0,
                s.remote_read_bytes as f64 / 1024.0,
                s.task_skew()
            );
        }
        if !self.jobs.is_empty() {
            out += &format!(
                "total: {:.2}s over {} jobs\n",
                self.run_span(),
                self.jobs.len()
            );
        }
        if self.options.executor_mem.is_some() {
            let mc = self.mem_counters();
            out += &format!(
                "memory: {} evictions, {} spills ({} B), {} rereads ({} B), {} released\n",
                mc.evictions, mc.spills, mc.spill_bytes, mc.rereads, mc.reread_bytes, mc.released
            );
        }
        if self.faults.is_some() {
            let fc = self.fault_counters();
            out += &format!(
                "faults: {} injected failures over {} tasks, {} recomputed map tasks, \
                 {} re-homed partitions ({} B), {} nodes lost, {} stragglers, {} corrupt chunks\n",
                fc.injected_failures,
                fc.retried_tasks,
                fc.recomputed_map_tasks,
                fc.replica_rehomed_partitions,
                fc.replica_read_bytes,
                fc.nodes_lost,
                fc.stragglers_applied,
                fc.corrupt_chunks
            );
        }
        out
    }

    /// A context on the paper's cluster with vanilla-Spark defaults.
    pub fn vanilla() -> Self {
        Context::new(EngineOptions::default())
    }

    // ------------------------------------------------------------------
    // Graph building (delegations to RddGraph)
    // ------------------------------------------------------------------

    /// See [`RddGraph::parallelize`].
    pub fn parallelize(&mut self, data: Vec<Record>, partitions: usize, tag: &'static str) -> Rdd {
        self.graph.parallelize(data, partitions, tag)
    }

    /// Registers `file` in the block store with `total_bytes` and returns a
    /// block-backed source over it. See [`RddGraph::from_blocks`].
    pub fn text_file(
        &mut self,
        file: &str,
        total_bytes: u64,
        gen: GenFn,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.store.create_file(file, total_bytes);
        self.graph.from_blocks(file, gen, cost, tag)
    }

    /// See [`RddGraph::map`].
    pub fn map(&mut self, parent: Rdd, f: MapFn, cost: f64, tag: &'static str) -> Rdd {
        self.graph.map(parent, f, cost, tag)
    }

    /// See [`RddGraph::map_values`].
    pub fn map_values(&mut self, parent: Rdd, f: MapFn, cost: f64, tag: &'static str) -> Rdd {
        self.graph.map_values(parent, f, cost, tag)
    }

    /// See [`RddGraph::flat_map`].
    pub fn flat_map(&mut self, parent: Rdd, f: FlatMapFn, cost: f64, tag: &'static str) -> Rdd {
        self.graph.flat_map(parent, f, cost, tag)
    }

    /// See [`RddGraph::filter`].
    pub fn filter(&mut self, parent: Rdd, f: FilterFn, cost: f64, tag: &'static str) -> Rdd {
        self.graph.filter(parent, f, cost, tag)
    }

    /// See [`RddGraph::sample`].
    pub fn sample(&mut self, parent: Rdd, fraction: f64, seed: u64, tag: &'static str) -> Rdd {
        self.graph.sample(parent, fraction, seed, tag)
    }

    /// See [`RddGraph::reduce_by_key`].
    pub fn reduce_by_key(
        &mut self,
        parent: Rdd,
        f: ReduceFn,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.graph.reduce_by_key(parent, f, scheme, cost, tag)
    }

    /// See [`RddGraph::group_by_key`].
    pub fn group_by_key(
        &mut self,
        parent: Rdd,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.graph.group_by_key(parent, scheme, cost, tag)
    }

    /// See [`RddGraph::repartition`].
    pub fn repartition(
        &mut self,
        parent: Rdd,
        scheme: Option<PartitionerSpec>,
        tag: &'static str,
    ) -> Rdd {
        self.graph.repartition(parent, scheme, tag)
    }

    /// See [`RddGraph::join`].
    pub fn join(
        &mut self,
        left: Rdd,
        right: Rdd,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.graph.join(left, right, scheme, cost, tag)
    }

    /// See [`RddGraph::co_group`].
    pub fn co_group(
        &mut self,
        left: Rdd,
        right: Rdd,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.graph.co_group(left, right, scheme, cost, tag)
    }

    /// Marks an RDD for caching; its partitions are retained the first time
    /// a job computes them.
    pub fn cache(&mut self, rdd: Rdd) {
        self.graph.set_cached(rdd);
    }

    // ------------------------------------------------------------------
    // Derived operator (sugar over the primitives, as in Spark)
    // ------------------------------------------------------------------

    /// Occurrence count per key (the word-count kernel): maps every record
    /// to `(key, 1)` and sums.
    pub fn count_by_key(
        &mut self,
        parent: Rdd,
        scheme: Option<PartitionerSpec>,
        tag: &'static str,
    ) -> Rdd {
        let ones = self.graph.map_values(
            parent,
            Arc::new(|r: &Record, out: &mut Record| {
                *out = Record::new(r.key.clone(), Value::Int(1))
            }),
            0.05e-6,
            tag,
        );
        self.graph.reduce_by_key(
            ones,
            Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int())),
            scheme,
            0.05e-6,
            tag,
        )
    }

    /// CHOPPER's repartition-insertion hook (Algorithm 3): if the active
    /// configuration requests a repartition after `rdd`'s stage, returns a
    /// repartitioned RDD; otherwise returns `rdd` unchanged. Workload
    /// builders call this at every point where an inserted phase is legal.
    pub fn maybe_insert_repartition(&mut self, rdd: Rdd) -> Rdd {
        let sig = self.graph.node(rdd).signature;
        match self.conf.repartition_after(sig) {
            Some(scheme) => self
                .graph
                .repartition(rdd, Some(scheme), "inserted-repartition"),
            None => rdd,
        }
    }

    // ------------------------------------------------------------------
    // Configuration / introspection
    // ------------------------------------------------------------------

    /// Replaces the active workload configuration (CHOPPER reads updates at
    /// stage boundaries; our jobs re-plan per action, which is equivalent
    /// since plans are built lazily).
    pub fn set_conf(&mut self, conf: WorkloadConf) {
        self.conf = conf;
    }

    /// Parses and applies a Fig. 6-style configuration file.
    pub fn set_conf_text(&mut self, text: &str) -> Result<(), String> {
        self.conf = WorkloadConf::from_text(text)?;
        Ok(())
    }

    /// The active configuration.
    pub fn conf(&self) -> &WorkloadConf {
        &self.conf
    }

    /// Engine options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The lineage graph (read-only).
    pub fn graph(&self) -> &RddGraph {
        &self.graph
    }

    /// The simulation (virtual clock, traces, IO stats).
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// The backing block store.
    pub fn store(&self) -> &Arc<BlockStore> {
        &self.store
    }

    /// Current virtual time.
    pub fn clock(&self) -> f64 {
        self.sim.clock()
    }

    /// All job metrics collected so far.
    pub fn jobs(&self) -> &[JobMetrics] {
        &self.jobs
    }

    /// Virtual time from the first job's start to the last job's end; zero
    /// before any job has run.
    pub fn run_span(&self) -> f64 {
        self.jobs
            .last()
            .map_or(0.0, |last| last.end - self.jobs[0].start)
    }

    /// All stage metrics across jobs, in execution order.
    pub fn all_stages(&self) -> Vec<&StageMetrics> {
        self.jobs.iter().flat_map(|j| j.stages.iter()).collect()
    }

    /// The signature of an RDD (for configuration targeting).
    pub fn signature(&self, rdd: Rdd) -> u64 {
        self.graph.node(rdd).signature
    }

    // ------------------------------------------------------------------
    // Actions
    // ------------------------------------------------------------------

    /// Runs the job computing `rdd` and returns all its records. A task's
    /// own output is moved into the result; only a window of a shared
    /// source or cache partition is cloned.
    pub fn collect(&mut self, rdd: Rdd, name: &str) -> Vec<Record> {
        let outs = self.run_job(rdd, name, false);
        let mut all = Vec::with_capacity(outs.iter().map(|o| o.out_records as usize).sum());
        for out in outs {
            match out.records {
                TaskRecords::Owned(v) => all.extend(v),
                shared => all.extend_from_slice(shared.as_slice()),
            }
        }
        all
    }

    /// Runs the job computing `rdd` and returns its record count. The
    /// result stage's tasks keep none of their output — each record is
    /// counted and sized as the narrow chain produces it — but the job is
    /// charged on the virtual clock exactly like a [`Context::collect`],
    /// the driver-link transfer of the result's bytes included (every
    /// committed figure pins that).
    pub fn count(&mut self, rdd: Rdd, name: &str) -> u64 {
        let outs = self.run_job(rdd, name, true);
        outs.iter().map(|o| o.out_records).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixture::{sum, test_options, word_records};
    use super::Context;
    use crate::config::WorkloadConf;
    use crate::ops::{sum_vector_counts, Emit, GenFn};
    use crate::partitioner::PartitionerSpec;
    use crate::rdd::Rdd;
    use crate::record::{Key, Record, Value};
    use faults::{FaultPlan, NodeLoss};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Three jobs over one lineage, with `act` as the action: a cached
    /// source chain (the result stage's output is a shared capture), the
    /// cache re-read, and a reduce (the result stage owns its output).
    fn counted_jobs(mut act: impl FnMut(&mut Context, Rdd, &str) -> u64) -> (Vec<u64>, Context) {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let odd = ctx.filter(
            src,
            Arc::new(|r: &Record| r.key != Key::Int(4)),
            1e-6,
            "odd",
        );
        ctx.cache(odd);
        let counts = ctx.reduce_by_key(odd, sum(), None, 1e-6, "count");
        let sizes = vec![
            act(&mut ctx, odd, "materialize"),
            act(&mut ctx, odd, "reuse"),
            act(&mut ctx, counts, "reduce"),
        ];
        (sizes, ctx)
    }

    #[test]
    fn count_is_collect_without_the_records() {
        let (counted, a) = counted_jobs(|ctx, rdd, name| ctx.count(rdd, name));
        let (collected, b) = counted_jobs(|ctx, rdd, name| ctx.collect(rdd, name).len() as u64);
        assert_eq!(counted, vec![180, 180, 9]);
        assert_eq!(counted, collected);
        assert_eq!(a.clock().to_bits(), b.clock().to_bits());
        // `f64`'s `Debug` is a shortest round-trip form: equal text, equal bits.
        assert_eq!(format!("{:?}", a.jobs()), format!("{:?}", b.jobs()));
    }

    #[test]
    fn word_count_end_to_end() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        let out = ctx.collect(counts, "wordcount");
        assert_eq!(out.len(), 10);
        for r in &out {
            assert_eq!(r.value.as_int(), 20, "each key appears 20 times");
        }
    }

    #[test]
    fn inserted_repartition_hook_applies_from_conf() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let sig = ctx.signature(src);
        let mut conf = WorkloadConf::new();
        conf.set_repartition(sig, PartitionerSpec::hash(2));
        ctx.set_conf(conf);
        let maybe = ctx.maybe_insert_repartition(src);
        assert_ne!(maybe, src, "repartition inserted");
        ctx.count(maybe, "repart");
        let stages = &ctx.jobs()[0].stages;
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[1].num_tasks, 2);

        // Without a matching entry the hook is the identity.
        let mut ctx2 = Context::new(test_options());
        let src2 = ctx2.parallelize(word_records(), 4, "src");
        assert_eq!(ctx2.maybe_insert_repartition(src2), src2);
    }

    #[test]
    fn derived_operators_compute_correctly() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let counts = ctx.count_by_key(src, None, "cbk");
        let out = ctx.collect(counts, "cbk");
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|r| r.value.as_int() == 20));
    }

    #[test]
    fn dynamic_conf_update_applies_to_next_job() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        ctx.count(counts, "before");
        let sig = ctx.signature(counts);
        ctx.set_conf_text(&format!("stage {sig:016x} hash 2\n"))
            .unwrap();
        // Rebuild the iteration (structurally identical → same signature).
        let counts2 = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        ctx.count(counts2, "after");
        let jobs = ctx.jobs();
        assert_eq!(jobs[0].stages[1].num_tasks, 6);
        assert_eq!(jobs[1].stages[1].num_tasks, 2);
    }

    #[test]
    fn uncache_frees_the_entry_and_recomputes_on_reuse() {
        let mut opts = test_options();
        opts.executor_mem = Some(1 << 20);
        let mut ctx = Context::new(opts);
        let src = ctx.parallelize(word_records(), 4, "src");
        let doubled = ctx.map(
            src,
            Arc::new(|r: &Record, out: &mut Record| {
                *out = Record::new(r.key.clone(), Value::Int(r.value.as_int() * 2))
            }),
            1e-7,
            "doubled",
        );
        ctx.cache(doubled);
        ctx.count(doubled, "materialize");
        ctx.uncache(doubled);
        assert_eq!(ctx.mem_counters().released, 1, "uncache frees immediately");
        // Reuse still works — the read falls back to lineage recompute.
        let counts = ctx.reduce_by_key(doubled, sum(), None, 1e-6, "count");
        let out = ctx.collect(counts, "reuse");
        assert_eq!(out.len(), 10);
        for r in &out {
            assert_eq!(r.value.as_int(), 40, "20 occurrences of value 2");
        }
    }

    /// A map that re-keys a cached record by cloning its value hands an
    /// in-place reduce values read off the cached partition: the folds
    /// write only the accumulator's own vector, and the cache must read
    /// back as generated.
    #[test]
    fn in_place_reduce_over_a_cached_rdd_leaves_the_cache_untouched() {
        const N: u64 = 240;
        let point = |i: u64| {
            let x = (0..3).map(move |d| (3 * i + d) as f64 + 0.25);
            Record::new(Key::Int(i as i64), Value::vector_from(x))
        };
        let generated = Arc::new(AtomicUsize::new(0));
        let gen: GenFn = {
            let generated = Arc::clone(&generated);
            Arc::new(move |part, parts, out: &mut dyn Emit| {
                generated.fetch_add(1, Ordering::Relaxed);
                let span = |p: usize| N * p as u64 / parts as u64;
                (span(part)..span(part + 1)).for_each(|i| out.emit(point(i)));
            })
        };
        let mut ctx = Context::new(test_options());
        let points = ctx.text_file("points", N * 35, gen, 1e-6, "points");
        ctx.cache(points);
        let fresh: Vec<Record> = (0..N).map(point).collect();
        assert_eq!(ctx.collect(points, "materialize"), fresh);
        let splits = generated.load(Ordering::Relaxed);

        let rekeyed = ctx.map(
            points,
            Arc::new(|r: &Record, out: &mut Record| {
                let k = match r.key {
                    Key::Int(i) => i % 4,
                    _ => unreachable!("int keys"),
                };
                let acc = Value::Pair(Box::new(r.value.clone()), Box::new(Value::Int(1)));
                *out = Record::new(Key::Int(k), acc)
            }),
            1e-6,
            "rekey",
        );
        let sums = ctx.reduce_by_key(rekeyed, sum_vector_counts(), None, 1e-6, "sum");
        for r in ctx.collect(sums, "sum") {
            let Value::Pair(sum, count) = &r.value else {
                panic!("accumulator expected, got {r:?}");
            };
            assert_eq!(count.as_int(), 60);
            let k = match r.key {
                Key::Int(k) => k as u64,
                _ => unreachable!("int keys"),
            };
            // Σ over i ≡ k (mod 4) of 3i + d + 0.25, exact in f64.
            let base = (0..N).filter(|i| i % 4 == k).sum::<u64>() as f64;
            let want: Vec<f64> = (0..3)
                .map(|d| 3.0 * base + 60.0 * (d as f64 + 0.25))
                .collect();
            assert_eq!(sum.as_vector(), want);
        }

        assert_eq!(
            ctx.collect(points, "reread"),
            fresh,
            "cache written through"
        );
        assert_eq!(
            generated.load(Ordering::Relaxed),
            splits,
            "both later jobs read the cache, not the generator"
        );
    }

    /// A cached generated split is the one split a task keeps: the
    /// generator's `reserve` makes it one exact allocation. A generator
    /// that gives no hint caches the same records, under a vector that
    /// grew.
    #[test]
    fn a_reserved_cached_split_is_one_exact_allocation() {
        const N: usize = 700;
        let cached = |reserve: bool| {
            let gen: GenFn = Arc::new(move |part, parts, out: &mut dyn Emit| {
                let (lo, hi) = (N * part / parts, N * (part + 1) / parts);
                if reserve {
                    out.reserve(hi - lo);
                }
                for i in lo..hi {
                    out.emit(Record::new(Key::Int(i as i64 % 9), Value::Int(i as i64)));
                }
            });
            let mut ctx = Context::new(test_options());
            let rows = ctx.text_file("rows", 20 * N as u64, gen, 1e-6, "rows");
            ctx.cache(rows);
            let sums = ctx.reduce_by_key(rows, sum(), None, 1e-6, "sums");
            let out = (
                ctx.count(rows, "materialize"),
                ctx.collect(rows, "reread"),
                ctx.collect(sums, "sums"),
                format!("{:?}", ctx.jobs()),
            );
            let parts = ctx.ledger.cached(rows).0.parts.to_vec();
            (out, parts)
        };
        let ((reserved, parts), (grown, grown_parts)) = (cached(true), cached(false));
        assert_eq!(reserved.0, N as u64);
        assert_eq!(reserved, grown, "a hint changes no result and no metric");
        assert!(parts.len() > 1, "several splits");
        for (part, grown) in parts.iter().zip(&grown_parts) {
            assert_eq!(part.capacity(), part.len(), "sized once, exactly");
            assert_eq!(part, grown);
            assert!(grown.capacity() > grown.len(), "an unhinted split grew");
        }
    }

    #[test]
    fn uncache_on_an_ungoverned_context_is_safe() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        ctx.cache(src);
        ctx.count(src, "materialize");
        ctx.uncache(src);
        let out = ctx.collect(src, "reuse");
        assert_eq!(out.len(), 200);
        assert_eq!(ctx.mem_counters().released, 1, "the book is real");
        assert_eq!(ctx.sim().resident_bytes(), &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "invalid engine options")]
    fn context_refuses_invalid_fault_options() {
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            node_loss: vec![NodeLoss { node: 9, at: 1.0 }],
            ..FaultPlan::default()
        });
        Context::new(opts);
    }
}
