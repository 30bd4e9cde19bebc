//! The engine context: graph building, job execution, and the bridge to the
//! simulated cluster.
//!
//! Execution is *hybrid*: task data is computed for real (in parallel, on
//! host threads) so results, shuffle volumes, and skew are genuine; task
//! *timing* is derived on the simulated heterogeneous cluster, so stage
//! durations reflect the paper's testbed rather than the build machine.

use crate::config::WorkloadConf;
use crate::metrics::{JobMetrics, StageKind, StageMetrics};
use crate::ops::{FilterFn, FlatMapFn, GenFn, MapFn, OpKind, ReduceFn};
use crate::partitioner::{build_partitioner, Partitioner, PartitionerKind, PartitionerSpec};
use crate::pool::{lock, WorkerPool};
use crate::rdd::{Rdd, RddGraph};
use crate::record::{batch_size, IntoRecord, Key, Record};
use crate::shuffle::{
    CogroupMerge, Combiner, ConcatMerge, GroupMerge, JoinMerge, ReduceMerge, Run, Runs, TaskArena,
    TaskRuns,
};
use crate::stage::{plan_job, MaterializedInfo, Plan, PlanStage, SideDep, StageOutput, StageRoot};
use blockstore::BlockStore;
use faults::{FaultCounters, FaultPlan, NodeLoss, Straggler};
use memman::{Eviction, MemCounters, MemoryManager};
use numeric::Reservoir;
use simcluster::{ClusterSpec, NodeId, Simulation, TaskSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use trace::TraceSink;

/// Compute units charged per record for partition assignment during shuffle
/// writes.
pub(crate) const PARTITION_COST: f64 = 0.05e-6;
/// Compute units charged per record for range-partitioner sampling.
pub(crate) const SAMPLE_COST: f64 = 0.02e-6;
/// Compute units charged per fetched record during reduce-side merges.
const MERGE_BASE_COST: f64 = 0.03e-6;

/// Engine construction options.
#[derive(Clone)]
pub struct EngineOptions {
    /// The simulated cluster to run on.
    pub cluster: ClusterSpec,
    /// Default task parallelism when nothing else decides (the paper's
    /// experiments use 300).
    pub default_parallelism: usize,
    /// CHOPPER's co-partition-aware scheduling: anchor same-scheme
    /// partitions to the same nodes and prefer data-heavy nodes for reduce
    /// tasks (Section III-C). Off = vanilla Spark placement.
    pub copartition_scheduling: bool,
    /// Host threads used for real data computation.
    pub workers: usize,
    /// Block size of the backing store.
    pub block_size: u64,
    /// Driver link bandwidth (bytes/s) for result collection (the paper's
    /// master sits on the 1 GbE segment).
    pub driver_bandwidth: f64,
    /// Execution-trace sink. Disabled by default; when enabled, stage
    /// spans, task timelines, shuffle counters, and pool scheduling
    /// counters are recorded. Tracing only observes — simulated timings
    /// are bit-identical with the sink on or off.
    pub trace: TraceSink,
    /// Per-executor unified memory budget in bytes. `None` (the default)
    /// is the unbounded case: the memory manager books every cached
    /// partition all the same, but no node is ever over its limit, so
    /// nothing is evicted or spilled. `Some(b)` bounds each node's cached
    /// data + task working sets at `b` bytes.
    pub executor_mem: Option<u64>,
    /// No effect. The engine has one executor; this field once selected
    /// between two and is kept only because the frozen `benchmark/`
    /// package still sets it. Nothing reads it.
    pub pipeline: bool,
    /// Deterministic fault-injection plan. `None` (the default) runs
    /// fault-free — the recovery hooks cost nothing. `Some(plan)` injects
    /// the plan's task failures, node losses, stragglers, and
    /// shuffle-chunk corruption, and enables the recovery machinery:
    /// bounded task retry with exponential backoff, lineage recomputation
    /// of lost shuffle map outputs, replica re-homing of cached
    /// partitions, and scheduler blacklisting of lost nodes. Faults
    /// perturb only the *simulated* side (timings, placements, the
    /// virtual clock); results and metrics byte tables stay bit-identical
    /// to the fault-free run.
    pub faults: Option<FaultPlan>,
    /// Columnar data plane (the default): combine-free shuffle writes
    /// convert each task's output to a typed [`crate::batch::ColumnBatch`],
    /// compute partition assignment with one pass over the key column,
    /// and ship zero-copy batch slices through the shuffle instead of
    /// cloned record vectors. Results, byte tables, and virtual-clock
    /// timings are bit-identical either way — tasks whose keys don't fit
    /// a typed column layout (and all map-side-combine shuffles) fall
    /// back to the row path per task. `false` forces rows everywhere.
    pub batch: bool,
    /// Host compute pool to share with other contexts. `None` (the
    /// default) builds a private pool of `workers` lanes. The job server
    /// sets this so every tenant's data plane runs on one pool: dispatches
    /// serialize at epoch granularity inside [`WorkerPool`], and each
    /// context's [`Context::slot_cap_handle`] bounds how many lanes its
    /// epochs may occupy. Purely a host-side concern — virtual timings and
    /// results are bit-identical shared or not.
    pub shared_pool: Option<Arc<WorkerPool>>,
    /// Adaptive query execution (the default): after the map side of a
    /// range-partitioned shuffle completes, the engine inspects the
    /// map×partition byte table and splits hot reduce partitions into
    /// sub-tasks before reduce work dispatches (see [`crate::adaptive`]).
    /// Every decision is a pure function of data-plane byte counts, so
    /// results stay bit-identical across worker counts, engines, and
    /// fault plans; sorted output tables equal the unsplit run's. `false`
    /// restores static plans bit-for-bit — timings included.
    pub adaptive: bool,
    /// Between-jobs re-optimization hook. After each job the engine hands
    /// the hook that job's per-stage actuals ([`crate::adaptive::StageActuals`]);
    /// a returned [`WorkloadConf`] replaces the context's configuration
    /// for subsequent jobs. `None` (the default) never re-plans. Installed
    /// by CHOPPER's adaptive layer (`chopper::adaptive::replan`).
    pub replan: Option<crate::adaptive::ReplanHook>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            cluster: simcluster::paper_cluster(),
            default_parallelism: 300,
            copartition_scheduling: false,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            block_size: 128 * 1024 * 1024,
            driver_bandwidth: 1e9 / 8.0,
            trace: TraceSink::disabled(),
            executor_mem: None,
            pipeline: true,
            faults: None,
            batch: true,
            shared_pool: None,
            adaptive: true,
            replan: None,
        }
    }
}

impl EngineOptions {
    /// The per-task execution-memory budget implied by `executor_mem`:
    /// the tightest node's budget split across its cores (every core may
    /// host a task concurrently). `None` without a budget.
    pub fn per_task_mem_budget(&self) -> Option<u64> {
        let mem = self.executor_mem?;
        let max_cores = self
            .cluster
            .nodes
            .iter()
            .map(|n| n.cores)
            .max()
            .unwrap_or(1)
            .max(1);
        Some(mem / max_cores as u64)
    }

    /// Checks for malformed values and contradictory combinations.
    /// [`Context::new`] panics on an invalid set; the CLI calls this at
    /// parse time so the user gets the message instead of a silent
    /// fallback.
    pub fn validate(&self) -> Result<(), String> {
        let (topology, nodes) = (self.cluster.topology, self.cluster.num_nodes());
        if !topology.covers(nodes) {
            return Err(format!(
                "topology {topology} has room for fewer hosts than the cluster's \
                 {nodes} nodes — grow the rack grid or shrink the cluster"
            ));
        }
        if let Some(plan) = &self.faults {
            plan.validate(self.cluster.num_nodes())?;
        }
        Ok(())
    }
}

struct Materialized {
    parts: Vec<Arc<Vec<Record>>>,
    homes: Vec<NodeId>,
    partitioning: Option<PartitionerSpec>,
    producer_stage: usize,
}

/// One shuffle's map output, from the map stage that wrote it until the
/// last stage that reads it.
struct ShuffleData {
    /// `rows[map_task]` — that task's whole output in reduce-partition
    /// order, records or a columnar batch per the task's layout. One lock
    /// per map task: a reduce task merges its partition's run out of the
    /// row in place (see [`ShuffleData::with_run`]) and holds the lock only
    /// for that. Emptied after the last read.
    rows: Vec<Mutex<Runs>>,
    /// `offsets[map_task]`: reduce partition `c`'s run is
    /// `offsets[map_task][c]..offsets[map_task][c + 1]` of the row.
    offsets: Vec<Vec<usize>>,
    /// `bytes[map_task][reduce_partition]`, serialized size per run.
    bytes: Vec<Vec<u64>>,
    nodes: Vec<NodeId>,
    producer_gid: usize,
    /// The producer stage's task specs, retained only while a fault plan
    /// is active so that map outputs lost to a node failure can be
    /// recomputed through lineage (empty otherwise).
    specs: Vec<TaskSpec>,
    /// More than one read in the plan (a self-join, or two stages over one
    /// uncached wide RDD): reads clone the records instead of moving them.
    shared: bool,
    /// Reads of this shuffle that have not run yet.
    reads_left: usize,
}

/// Live state of a fault plan over a run: the not-yet-applied timed
/// events, which nodes have been lost, and what the recovery machinery
/// has done so far.
struct FaultState {
    plan: FaultPlan,
    /// Node-loss events sorted by `(at, node)`; `next_loss` indexes the
    /// first event still pending. Sorting makes application order
    /// independent of the order events were written in the plan file.
    losses: Vec<NodeLoss>,
    next_loss: usize,
    /// Slow-node events sorted by `(at, node)`.
    stragglers: Vec<Straggler>,
    next_straggler: usize,
    counters: FaultCounters,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        let mut losses = plan.node_loss.clone();
        losses.sort_by(|a, b| {
            (a.at, a.node)
                .partial_cmp(&(b.at, b.node))
                .expect("finite event times")
        });
        let mut stragglers = plan.stragglers.clone();
        stragglers.sort_by(|a, b| {
            (a.at, a.node)
                .partial_cmp(&(b.at, b.node))
                .expect("finite event times")
        });
        FaultState {
            plan,
            losses,
            next_loss: 0,
            stragglers,
            next_straggler: 0,
            counters: FaultCounters::default(),
        }
    }
}

/// The engine context: owns the lineage graph, the simulated cluster, the
/// block store, cached data, and all collected metrics.
pub struct Context {
    graph: RddGraph,
    sim: Simulation,
    store: Arc<BlockStore>,
    conf: WorkloadConf,
    options: EngineOptions,
    /// Persistent compute pool; every stage's tasks fan out over these
    /// threads. Possibly shared with other
    /// contexts (see [`EngineOptions::shared_pool`]).
    pool: Arc<WorkerPool>,
    /// Upper bound on pool lanes this context's dispatches may occupy
    /// (`usize::MAX` = unbounded). The job server retunes it between jobs
    /// to hand each tenant its weighted share of a shared pool. Affects
    /// only host-side parallelism, never virtual timing or results.
    slot_cap: Arc<AtomicUsize>,
    materialized: HashMap<Rdd, Materialized>,
    anchors: HashMap<(crate::partitioner::PartitionerKind, usize, usize), NodeId>,
    jobs: Vec<JobMetrics>,
    next_stage_id: usize,
    /// The ledger of cached-partition residency: which bytes sit in which
    /// node's memory and which entries live on disk. Unbounded when
    /// `executor_mem` is `None`. Every change goes through
    /// [`Context::book`], which keeps `sim`'s residency and the spill
    /// files in `store` in step with it.
    mem: MemoryManager,
    /// Cached reads already served per RDD, subtracted from the lineage
    /// child count to get *remaining* references for LRC.
    reads_done: HashMap<Rdd, usize>,
    /// Fault-injection state (plan, pending events, recovery counters);
    /// `None` when running fault-free.
    faults: Option<FaultState>,
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
        if options.trace.is_enabled() {
            options
                .trace
                .name_process(trace::pids::DRIVER, "driver (virtual time)");
            options
                .trace
                .name_thread(trace::Track::new(trace::pids::DRIVER, 0), "stages");
        }
        let mem = MemoryManager::new(options.cluster.num_nodes(), options.executor_mem);
        let faults = options.faults.clone().map(FaultState::new);
        Context {
            graph: RddGraph::new(),
            sim,
            store,
            conf: WorkloadConf::new(),
            options,
            pool,
            slot_cap: Arc::new(AtomicUsize::new(usize::MAX)),
            materialized: HashMap::new(),
            anchors: HashMap::new(),
            jobs: Vec::new(),
            next_stage_id: 0,
            mem,
            reads_done: HashMap::new(),
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
    fn lane_cap(&self) -> usize {
        self.slot_cap.load(Ordering::Relaxed).max(1)
    }

    /// The execution-trace sink this context records into (disabled unless
    /// set via [`EngineOptions::trace`]).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.options.trace
    }

    /// Per-stage summary of every job run so far (task-time percentiles,
    /// skew, shuffle bytes) plus the executor pool's scheduling counters.
    ///
    /// Derived from collected [`StageMetrics`], so it is available whether
    /// or not the trace sink was enabled, and the stage rows are
    /// bit-deterministic across worker counts.
    pub fn trace_summary(&self) -> trace::TraceSummary {
        let mut stages = Vec::new();
        let mut total_s = 0.0f64;
        for job in &self.jobs {
            for m in &job.stages {
                let mut durations = m.task_durations.clone();
                durations.sort_by(|a, b| a.partial_cmp(b).expect("finite task times"));
                stages.push(trace::StageSummaryRow {
                    stage_id: m.stage_id,
                    job_id: m.job_id,
                    name: m.name.clone(),
                    kind: format!("{:?}", m.kind).to_lowercase(),
                    tasks: m.num_tasks,
                    duration_s: m.duration(),
                    p50_task_s: trace::percentile(&durations, 50.0),
                    p95_task_s: trace::percentile(&durations, 95.0),
                    max_task_s: durations.last().copied().unwrap_or(0.0),
                    skew: m.task_skew(),
                    shuffle_read_bytes: m.shuffle_read_bytes,
                    shuffle_write_bytes: m.shuffle_write_bytes,
                    remote_read_bytes: m.remote_read_bytes,
                });
                total_s = total_s.max(m.end);
            }
        }
        trace::TraceSummary {
            stages,
            pool: self.pool.stats(),
            total_s,
        }
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

    /// Releases a cached RDD: drops its pin reference and frees the
    /// materialization (memory residency, storage-region accounting, and
    /// any spill files) immediately. A later read recomputes from lineage.
    pub fn uncache(&mut self, rdd: Rdd) {
        self.graph.set_uncached(rdd);
        let Some(mat) = self.materialized.remove(&rdd) else {
            return;
        };
        let id = rdd.0 as u64;
        if self.mem.is_spilled(id) {
            for i in 0..mat.parts.len() {
                self.store.delete_file(&spill_name(rdd, i));
            }
        }
        self.book(|mem, _| {
            mem.release(id);
            Vec::new()
        });
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
            Arc::new(|r: &Record| Record::new(r.key.clone(), crate::record::Value::Int(1))),
            0.05e-6,
            tag,
        );
        self.graph.reduce_by_key(
            ones,
            Arc::new(|a: &crate::record::Value, b: &crate::record::Value| {
                crate::record::Value::Int(a.as_int() + b.as_int())
            }),
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
        let outs = self.run_job(rdd, name);
        let mut all = Vec::with_capacity(outs.iter().map(|o| o.out_records as usize).sum());
        for out in outs {
            match out.records {
                TaskRecords::Owned(v) => all.extend(v),
                shared => all.extend_from_slice(shared.as_slice()),
            }
        }
        all
    }

    /// Runs the job computing `rdd` and returns its record count. No
    /// result vector is built, but the job is charged on the virtual clock
    /// exactly like a [`Context::collect`] — the driver-link transfer of
    /// the result's bytes included (every committed figure pins that), so
    /// the tasks still sum their output bytes.
    pub fn count(&mut self, rdd: Rdd, name: &str) -> u64 {
        let outs = self.run_job(rdd, name);
        outs.iter().map(|o| o.out_records).sum()
    }

    fn mat_infos(&self) -> HashMap<Rdd, MaterializedInfo> {
        self.materialized
            .iter()
            .map(|(&r, m)| {
                (
                    r,
                    MaterializedInfo {
                        partitions: m.parts.len(),
                        partitioning: m.partitioning,
                    },
                )
            })
            .collect()
    }

    /// Runs the job computing `final_rdd` and returns the outputs of its
    /// result stage's tasks.
    fn run_job(&mut self, final_rdd: Rdd, name: &str) -> Vec<TaskOut> {
        let plan = plan_job(
            &self.graph,
            final_rdd,
            &self.conf,
            self.options.default_parallelism,
            &self.mat_infos(),
        );
        let job_id = self.jobs.len();
        let job_start = self.sim.clock();

        let mut shuffles: Vec<Option<ShuffleData>> = Vec::new();
        shuffles.resize_with(plan.shuffles.len(), || None);
        let mut stage_metrics: Vec<StageMetrics> = Vec::new();
        let mut result: Vec<TaskOut> = Vec::new();

        for idx in 0..plan.stages.len() {
            let gid = self.next_stage_id;
            self.next_stage_id += 1;
            let (metrics, result_outs) = self.exec_stage(&plan, idx, gid, job_id, &mut shuffles);
            stage_metrics.push(metrics);
            if let Some(outs) = result_outs {
                result = outs;
            }
        }

        // Driver-side result collection over the master's link.
        let result_bytes: u64 = result.iter().map(|o| o.out_bytes).sum();
        if result_bytes > 0 {
            self.sim
                .advance(result_bytes as f64 / self.options.driver_bandwidth);
        }

        self.replan_after_job(&plan, job_id, &stage_metrics, &shuffles);

        self.jobs.push(JobMetrics {
            job_id,
            name: name.to_string(),
            stages: stage_metrics,
            start: job_start,
            end: self.sim.clock(),
        });
        result
    }

    /// Between-jobs re-optimization: hand the finished job's actuals to
    /// the installed hook; a returned configuration replaces `conf` for
    /// subsequent jobs. Decisions and their trigger state are recorded as
    /// virtual-clock trace instants on the driver track.
    fn replan_after_job(
        &mut self,
        plan: &Plan,
        job_id: usize,
        stage_metrics: &[StageMetrics],
        shuffles: &[Option<ShuffleData>],
    ) {
        let Some(hook) = self.options.replan.clone() else {
            return;
        };
        let actuals: Vec<crate::adaptive::StageActuals> = stage_metrics
            .iter()
            .enumerate()
            .map(|(idx, m)| {
                let write_bucket_skew = match plan.stages[idx].output {
                    StageOutput::ShuffleWrite(sidx) => shuffles[sidx]
                        .as_ref()
                        .map(|d| {
                            let cols: Vec<f64> =
                                d.column_bytes().into_iter().map(|b| b as f64).collect();
                            trace::skew_ratio(&cols)
                        })
                        .unwrap_or(1.0),
                    StageOutput::Result => 1.0,
                };
                crate::adaptive::StageActuals {
                    stage_id: m.stage_id,
                    signature: m.root_signature,
                    kind: m.kind,
                    scheme: m.scheme,
                    configurable: m.configurable,
                    num_tasks: self.stage_partitions(plan, &plan.stages[idx]).max(1),
                    tasks_run: m.num_tasks,
                    input_records: m.input_records,
                    input_bytes: m.input_bytes,
                    output_bytes: m.output_bytes,
                    shuffle_read_bytes: m.shuffle_read_bytes,
                    shuffle_write_bytes: m.shuffle_write_bytes,
                    write_bucket_skew,
                    duration_s: m.end - m.start,
                    task_skew: m.task_skew(),
                }
            })
            .collect();
        let input = crate::adaptive::ReplanInput {
            job_id,
            clock: self.sim.clock(),
            conf: self.conf.clone(),
            actuals,
        };
        if let Some(new_conf) = hook(&input) {
            if self.options.trace.is_enabled() {
                use trace::{pids, Clock, Track};
                self.options.trace.instant(
                    Clock::Virtual,
                    Track::new(pids::DRIVER, 0),
                    format!("j{job_id} adaptive replan"),
                    "adaptive",
                    input.clock,
                    vec![
                        ("job", job_id.into()),
                        ("decisions", new_conf.stages.len().into()),
                    ],
                );
            }
            self.conf = new_conf;
        }
    }

    /// Number of tasks a plan stage runs.
    fn stage_partitions(&self, plan: &Plan, stage: &PlanStage) -> usize {
        match &stage.root {
            StageRoot::Source(rdd) => self.source_partitions(*rdd, plan.default_parallelism),
            StageRoot::ShuffleRead { shuffle, .. } => plan.shuffles[*shuffle].scheme.partitions,
            StageRoot::JoinRead { wide, .. } => plan.schemes[wide].partitions,
            StageRoot::CachedRead(rdd) => self.materialized[rdd].parts.len(),
        }
    }

    fn source_partitions(&self, rdd: Rdd, default_parallelism: usize) -> usize {
        let node = self.graph.node(rdd);
        match &node.op {
            OpKind::SourceCollection { partitions, .. } => *partitions,
            OpKind::SourceBlocks { file, .. } => {
                if let Some(s) = self.conf.stage_scheme(node.signature) {
                    return s.partitions;
                }
                let blocks = self
                    .store
                    .file_blocks(file)
                    .map(|b| b.len())
                    .unwrap_or(1)
                    .max(1);
                blocks.max(default_parallelism)
            }
            other => panic!("source_partitions on non-source op {other:?}"),
        }
    }

    /// Known partitioning of a stage's root output.
    fn root_partitioning(&self, plan: &Plan, stage: &PlanStage) -> Option<PartitionerSpec> {
        match &stage.root {
            StageRoot::Source(_) => None,
            StageRoot::ShuffleRead { wide, .. } | StageRoot::JoinRead { wide, .. } => {
                plan.schemes.get(wide).copied()
            }
            StageRoot::CachedRead(rdd) => self.materialized[rdd].partitioning,
        }
    }

    /// Partitioning of `target` given the stage's root partitioning and the
    /// narrow chain leading to it.
    fn partitioning_at(
        &self,
        root_part: Option<PartitionerSpec>,
        chain: &[Rdd],
        target: Rdd,
    ) -> Option<PartitionerSpec> {
        let mut cur = root_part;
        for &r in chain {
            if !self.graph.node(r).op.preserves_partitioning() {
                cur = None;
            }
            if r == target {
                return cur;
            }
        }
        cur
    }

    /// Runs plan stage `plan_idx`, in phases: resolve inputs → run tasks →
    /// build specs → fault injection, simulation and memory reservation →
    /// persist captures and shuffle output → metrics → trace. Every job
    /// takes this one path; options only change what the accounting
    /// phases charge, never which code moves the data.
    fn exec_stage(
        &mut self,
        plan: &Plan,
        plan_idx: usize,
        gid: usize,
        job_id: usize,
        shuffles: &mut [Option<ShuffleData>],
    ) -> (StageMetrics, Option<Vec<TaskOut>>) {
        let stage = &plan.stages[plan_idx];
        let cx = StageCtx {
            plan,
            plan_idx,
            gid,
            job_id,
            num_tasks: self.stage_partitions(plan, stage).max(1),
            root_scheme: match &stage.root {
                StageRoot::ShuffleRead { shuffle, .. } => Some(plan.shuffles[*shuffle].scheme),
                StageRoot::JoinRead { wide, .. } => plan.schemes.get(wide).copied(),
                _ => None,
            },
        };
        // Fault plan: apply node-loss and slow-node events whose virtual
        // time has passed before this stage reads any placement state, so
        // reads see re-homed data and the scheduler sees the shrunk
        // topology. Recovery (lineage recompute + replica re-homing) runs
        // inside, before any consumer fetch accounting for a lost shuffle.
        self.apply_due_faults(shuffles);

        let sink = self.options.trace.clone();
        let (input, mut reads) = self.resolve_inputs(&cx, shuffles);
        let wall_start = sink.wall_now();
        let (outs, writes) = self.run_tasks(&cx, &input);
        let wall = (wall_start, sink.wall_now());
        drop(input);
        // A shuffle's table is dead once its last read has run.
        for sidx in stage.root.shuffle_reads() {
            let data = shuffles[sidx].as_mut().expect("producer stage ran first");
            data.reads_left -= 1;
            if data.reads_left == 0 {
                data.rows = Vec::new();
            }
        }
        self.account_cached_reads(&reads.cached_reads);

        if let Some(sp) = reads.split_plan.as_ref().filter(|_| sink.is_enabled()) {
            self.trace_split(&cx, sp);
        }
        let StageSpecs {
            mut specs,
            last_spec_of_task,
            unsplit,
        } = self.build_specs(&cx, &reads, &outs, writes.as_deref());
        // Corrupt-chunk injection appends re-fetch entries to the specs'
        // fetch lists, and the metrics byte tables must stay
        // fault-invariant: remember where each list ended before it.
        let clean_fetches: Option<Vec<usize>> = self
            .faults
            .as_ref()
            .filter(|f| f.plan.corrupt_prob > 0.0)
            .map(|_| specs.iter().map(|s| s.fetches.len()).collect());
        let timing = self.charge_stage(&cx, &mut specs, reads.split_plan.is_some());
        // Per physical task: the node that finished it (its last sub).
        let homes: Vec<NodeId> = last_spec_of_task
            .iter()
            .map(|&j| timing.tasks[j].node)
            .collect();
        self.persist_captures(&cx, &outs, &homes);

        reads.parents_gids.sort_unstable();
        reads.parents_gids.dedup();
        let fetches = specs.iter().enumerate().map(|(j, spec)| {
            let clean = clean_fetches.as_ref().map_or(spec.fetches.len(), |n| n[j]);
            &spec.fetches[..clean]
        });
        let metrics = self.stage_metrics(
            &cx,
            &outs,
            writes.as_deref(),
            fetches,
            &timing,
            reads.parents_gids,
        );
        let mut result_outs = None;
        match (stage.output, writes) {
            (StageOutput::ShuffleWrite(sidx), Some(writes)) => {
                let mut rows = Vec::with_capacity(cx.num_tasks);
                let mut offsets = Vec::with_capacity(cx.num_tasks);
                let mut bytes = Vec::with_capacity(cx.num_tasks);
                for w in writes {
                    rows.push(Mutex::new(w.runs.runs));
                    offsets.push(w.runs.offsets);
                    bytes.push(w.runs.bytes);
                }
                let reads_left = plan.shuffle_reads(sidx);
                shuffles[sidx] = Some(ShuffleData {
                    rows,
                    offsets,
                    bytes,
                    nodes: homes,
                    producer_gid: gid,
                    // Retained only under a fault plan, as-if-unsplit when
                    // a split fired: recompute of a lost map output re-runs
                    // the whole physical task, not one sub.
                    specs: match (self.faults.is_some(), unsplit) {
                        (false, _) => Vec::new(),
                        (true, Some(unsplit)) => unsplit,
                        (true, None) => specs,
                    },
                    shared: reads_left > 1,
                    reads_left,
                });
            }
            (StageOutput::Result, _) => result_outs = Some(outs),
            (StageOutput::ShuffleWrite(_), None) => {
                unreachable!("shuffle-write tasks return their runs")
            }
        }
        if sink.is_enabled() {
            self.trace_stage(&cx, &metrics, &timing, wall);
        }
        debug_assert_eq!(
            self.mem.storage_used(),
            self.sim.resident_bytes(),
            "a cached partition moved without going through `book`"
        );
        (metrics, result_outs)
    }

    // ------------------------------------------------------------------
    // Phase 1: resolve inputs
    // ------------------------------------------------------------------

    /// Where each task's input lives: the data-plane view (what
    /// [`compute_task`] reads) and the virtual-side view (what the
    /// simulator charges for reading it).
    fn resolve_inputs<'s>(
        &'s self,
        cx: &StageCtx<'_>,
        shuffles: &'s [Option<ShuffleData>],
    ) -> (StageInput<'s>, StageReads) {
        let num_tasks = cx.num_tasks;
        let mut reads = StageReads::default();
        let produced = |s: usize| -> &'s ShuffleData {
            shuffles[s].as_ref().expect("producer stage ran first")
        };
        let wide_cost = |wide: Rdd| self.graph.node(wide).cost_per_record;
        let input = match &cx.stage().root {
            StageRoot::Source(rdd) => self.source_input(*rdd, num_tasks, &mut reads),
            StageRoot::CachedRead(rdd) => {
                let mat = &self.materialized[rdd];
                let spilled = self.mem.is_spilled(rdd.0 as u64);
                reads.parents_gids.push(mat.producer_stage);
                reads.cached_reads.push(*rdd);
                reads.tasks = (0..num_tasks)
                    .map(|i| {
                        // A spilled partition lives in a spill file on its
                        // home node's disk: the read is local disk I/O
                        // (feeding the Fig. 14 transaction counters), not
                        // a memory-resident fetch.
                        let mut t = mat.read_of(i, spilled);
                        t.fetch_chunks = usize::from(!spilled);
                        t.preferred = vec![mat.homes[i]];
                        t
                    })
                    .collect();
                StageInput::Cached(&mat.parts)
            }
            StageRoot::ShuffleRead { wide, shuffle } => {
                let data = produced(*shuffle);
                reads.parents_gids.push(data.producer_gid);
                let merge = match &self.graph.node(*wide).op {
                    OpKind::ReduceByKey { f, .. } => {
                        MergeKind::Reduce(Arc::clone(f), wide_cost(*wide))
                    }
                    OpKind::GroupByKey { .. } => MergeKind::Group(wide_cost(*wide)),
                    OpKind::Repartition { .. } => MergeKind::Concat,
                    other => unreachable!("single-parent wide op expected, got {other:?}"),
                };
                // Adaptive hot-partition split, decided from the producer's
                // map×partition byte table before any reduce work
                // dispatches. Purely data-plane inputs: identical across
                // worker counts and fault plans.
                if self.options.adaptive
                    && crate::adaptive::split_eligible(cx.plan, &self.graph, cx.plan_idx).is_some()
                {
                    reads.split_plan = crate::adaptive::plan_splits(&data.column_bytes());
                    if reads.split_plan.is_some() {
                        reads.producer_nodes = data.nodes.clone();
                    }
                }
                reads.tasks = (0..num_tasks).map(|i| data.read_of(i)).collect();
                StageInput::Shuffle {
                    data,
                    merge,
                    split: reads.split_plan.clone(),
                    split_seed: crate::adaptive::split_seed(cx.job_id, cx.plan_idx),
                }
            }
            StageRoot::JoinRead { wide, left, right } => {
                let mut side = |dep: &SideDep| match dep {
                    SideDep::Shuffle(s) => {
                        reads.parents_gids.push(produced(*s).producer_gid);
                        JoinSide::Shuffle(produced(*s))
                    }
                    SideDep::Narrow(rdd) => {
                        reads
                            .parents_gids
                            .push(self.materialized[rdd].producer_stage);
                        reads.cached_reads.push(*rdd);
                        JoinSide::Narrow(&self.materialized[rdd], self.mem.is_spilled(rdd.0 as u64))
                    }
                };
                let (left, right) = (side(left), side(right));
                reads.tasks = (0..num_tasks)
                    .map(|i| {
                        let (mut t, r) = (left.read_of(i), right.read_of(i));
                        t.fetches.extend(r.fetches);
                        t.fetches = aggregate_fetches(t.fetches.iter().map(|(n, b)| (n, *b)));
                        t.fetch_chunks += r.fetch_chunks;
                        t.local_read_bytes += r.local_read_bytes;
                        t
                    })
                    .collect();
                StageInput::Join {
                    left,
                    right,
                    is_join: matches!(self.graph.node(*wide).op, OpKind::Join { .. }),
                    cost: wide_cost(*wide),
                }
            }
        };
        (input, reads)
    }

    fn source_input(&self, rdd: Rdd, num_tasks: usize, reads: &mut StageReads) -> StageInput<'_> {
        match &self.graph.node(rdd).op {
            OpKind::SourceCollection { data, .. } => {
                reads.tasks.resize_with(num_tasks, TaskReads::default);
                StageInput::Slice(data)
            }
            OpKind::SourceBlocks { file, gen, .. } => {
                let blocks = self.store.read_file(file).unwrap_or_default();
                let file_len: u64 = blocks.iter().map(|b| b.size).sum();
                let per_task = file_len / num_tasks as u64;
                // Once a node is lost, prefer the deterministic serving
                // replica the block store selects over the raw replica
                // list (whose primary may be dead).
                let down = self.sim.failed_nodes();
                let any_down = down.contains(&true);
                reads.tasks = (0..num_tasks)
                    .map(|i| {
                        let bi = i * blocks.len().max(1) / num_tasks;
                        let preferred = if blocks.is_empty() {
                            Vec::new()
                        } else if any_down {
                            self.store
                                .select_replica(file, bi, down)
                                .into_iter()
                                .collect()
                        } else {
                            blocks[bi].replicas.clone()
                        };
                        TaskReads {
                            local_read_bytes: per_task,
                            preferred,
                            ..TaskReads::default()
                        }
                    })
                    .collect();
                StageInput::Gen {
                    gen,
                    cost_per_record: self.graph.node(rdd).cost_per_record,
                }
            }
            other => unreachable!("source stage over {other:?}"),
        }
    }

    /// Accounts a stage's cached reads: each consuming stage burns one
    /// lineage reference, bumps recency, and — for spilled entries — pays
    /// the reread through the spill files.
    fn account_cached_reads(&mut self, cached_reads: &[Rdd]) {
        for rdd in cached_reads {
            *self.reads_done.entry(*rdd).or_insert(0) += 1;
            let id = rdd.0 as u64;
            self.mem.touch(id);
            if self.mem.is_spilled(id) {
                self.mem.reread(id);
                for i in 0..self.materialized[rdd].parts.len() {
                    self.store.read_file(&spill_name(*rdd, i));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: run tasks
    // ------------------------------------------------------------------

    /// Runs the stage's tasks on the pool. A task feeding a hash shuffle
    /// with map-side combine streams its narrow chain straight into the
    /// combine and never holds its pre-combine output; a combine-free hash
    /// write collects the task's output first (the columnar layout needs
    /// all of it) and bucketizes it by move before the next task starts;
    /// a range shuffle first needs every task's key sample for its
    /// bounds, so it computes in one pass and bucketizes, still by move,
    /// in a second. Returns per-task outputs and, for shuffle writes,
    /// per-task runs.
    fn run_tasks(
        &self,
        cx: &StageCtx<'_>,
        input: &StageInput<'_>,
    ) -> (Vec<TaskOut>, Option<Vec<MapWrite>>) {
        let (stage, num_tasks) = (cx.stage(), cx.num_tasks);
        let root_rdd = stage.root_rdd();
        let capture_root = self.graph.node(root_rdd).cached
            && !self.materialized.contains_key(&root_rdd)
            && !matches!(stage.root, StageRoot::CachedRead(_));
        let writer = match stage.output {
            StageOutput::ShuffleWrite(sidx) => {
                let shuffle = &cx.plan.shuffles[sidx];
                let wide = self.graph.node(shuffle.for_wide);
                Some(ShuffleWriter {
                    spec: shuffle.scheme,
                    combine: match &wide.op {
                        OpKind::ReduceByKey { f, .. } if shuffle.combine => Some(Arc::clone(f)),
                        _ => None,
                    },
                    combine_cost: wide.cost_per_record,
                    seed: (cx.job_id as u64) << 32 | (cx.plan_idx as u64) << 8 | 0xC0,
                    batch: self.options.batch,
                })
            }
            StageOutput::Result => None,
        };
        // Range writes: each task reservoir-samples its own output during
        // the compute pass.
        let sample = writer
            .as_ref()
            .filter(|w| w.is_range())
            .map(|w| SampleSpec {
                cap: (20 * w.spec.partitions).div_ceil(num_tasks).max(8),
                seed: w.seed,
            });
        let compute = |i: usize, stream: Option<&mut CombineSink<'_>>| {
            compute_task(
                &self.graph,
                input,
                &stage.chain,
                TaskId {
                    index: i,
                    of: num_tasks,
                },
                capture_root.then_some(root_rdd),
                sample.as_ref(),
                stream,
            )
        };
        let (pool, cap) = (&*self.pool, self.lane_cap());
        let Some(writer) = writer else {
            return (
                pool.map_capped(num_tasks, cap, |i, _| compute(i, None)),
                None,
            );
        };
        if !writer.is_range() {
            let partitioner = build_partitioner(writer.spec, std::iter::empty(), writer.seed);
            let (outs, writes) = pool
                .map_capped(num_tasks, cap, |i, p| {
                    pool.with_arena(p, |arena| match &writer.combine {
                        Some(f) => {
                            let mut sink = CombineSink::new(Combiner::new(&*partitioner, f, arena));
                            let out = compute(i, Some(&mut sink));
                            (out, writer.finish(sink))
                        }
                        None => {
                            let mut out = compute(i, None);
                            let records = std::mem::take(&mut out.records);
                            (out, writer.write(records, &*partitioner, arena))
                        }
                    })
                })
                .into_iter()
                .unzip();
            return (outs, Some(writes));
        }
        let mut outs = pool.map_capped(num_tasks, cap, |i, _| compute(i, None));
        // Bounds come from the per-task samples concatenated in task order,
        // so they are independent of worker scheduling.
        let keys: Vec<Key> = outs.iter().flat_map(|o| o.sample.iter().cloned()).collect();
        let partitioner = build_partitioner(writer.spec, keys.iter(), writer.seed);
        let records: Vec<Mutex<TaskRecords>> = outs
            .iter_mut()
            .map(|o| Mutex::new(std::mem::take(&mut o.records)))
            .collect();
        let writes = pool.map_capped(num_tasks, cap, |i, p| {
            let records = std::mem::take(&mut *lock(&records[i]));
            pool.with_arena(p, |arena| writer.write(records, &*partitioner, arena))
        });
        (outs, Some(writes))
    }

    // ------------------------------------------------------------------
    // Phase 3: task specs
    // ------------------------------------------------------------------

    /// Turns what the tasks read, computed and wrote into simulator task
    /// specs — one per task, or one per sub-merge where a task ran as an
    /// adaptive split.
    fn build_specs(
        &mut self,
        cx: &StageCtx<'_>,
        reads: &StageReads,
        outs: &[TaskOut],
        writes: Option<&[MapWrite]>,
    ) -> StageSpecs {
        let task_mem_budget = self.options.per_task_mem_budget();
        let split_active = reads.split_plan.is_some();
        let keep_unsplit = self.faults.is_some() && split_active;
        let mut specs: Vec<TaskSpec> = Vec::with_capacity(outs.len());
        // Split tasks expand into several virtual specs, but downstream
        // consumers address shuffle data per *physical* task: remember each
        // task's final spec, whose node finishes (and stores) its output.
        let mut last_spec_of_task: Vec<usize> = Vec::with_capacity(outs.len());
        let mut unsplit: Vec<TaskSpec> = Vec::new();
        for (i, (task, out)) in reads.tasks.iter().zip(outs).enumerate() {
            let (mut write_bytes, extra_cost) =
                writes.map_or((0, 0.0), |w| (w[i].runs.bytes.iter().sum(), w[i].cost));
            let mut local_read_bytes = task.local_read_bytes;
            // Map-side combine overflow: a shuffle buffer larger than the
            // task's execution-memory share spills the overflow to disk
            // and re-reads it during the merge.
            if let Some(budget) = task_mem_budget {
                let overflow = crate::shuffle::spill_overflow(write_bytes, budget);
                if overflow > 0 {
                    self.mem.note_shuffle_spill(overflow);
                    write_bytes += overflow;
                    local_read_bytes += overflow;
                }
            }
            let mut preferred = task.preferred.clone();
            let mut pinned = None;
            // Split stages skip co-partition anchoring: their virtual task
            // indices no longer align 1:1 with partition indices, so an
            // anchor keyed on them would pin the wrong data together.
            if self.options.copartition_scheduling && !split_active {
                if let Some(s) = cx.root_scheme {
                    if let Some(&anchor) = self.anchors.get(&(s.kind, s.partitions, i)) {
                        pinned = Some(anchor);
                    } else if let Some((node, _)) = task.fetches.iter().max_by_key(|(_, b)| *b) {
                        // Locality-aware reduce placement: prefer the node
                        // holding the largest share of this task's input.
                        preferred.push(*node);
                    }
                }
            }
            let base_spec = TaskSpec {
                compute_cost: out.cost + extra_cost,
                local_read_bytes,
                fetches: task.fetches.clone(),
                fetch_chunks: task.fetch_chunks,
                write_bytes,
                memory_bytes: out.input_bytes + out.out_bytes,
                preferred_nodes: preferred,
                pinned_node: pinned,
            };
            if keep_unsplit {
                unsplit.push(base_spec.clone());
            }
            match out.sub_stats.as_deref() {
                Some(stats) => {
                    debug_assert_eq!(
                        stats.iter().map(|s| s.fetched).sum::<u64>(),
                        out.input_records,
                        "sub-splits must partition the task's input"
                    );
                    let sub_cost_sum: f64 = stats.iter().map(|s| s.cost).sum();
                    for (s_idx, st) in stats.iter().enumerate() {
                        let last = s_idx + 1 == stats.len();
                        let sub_in: u64 = st.per_map_bytes.iter().sum();
                        specs.push(TaskSpec {
                            // The narrow chain (plus any bucketize/spill
                            // charge) runs once over the concatenated
                            // sub-outputs; charge it to the last sub, whose
                            // finish gates the physical task's output.
                            compute_cost: st.cost
                                + if last {
                                    (out.cost - sub_cost_sum) + extra_cost
                                } else {
                                    0.0
                                },
                            local_read_bytes: if last { local_read_bytes } else { 0 },
                            fetches: aggregate_fetches(
                                reads
                                    .producer_nodes
                                    .iter()
                                    .zip(st.per_map_bytes.iter().copied()),
                            ),
                            fetch_chunks: st.per_map_bytes.iter().filter(|&&b| b > 0).count(),
                            write_bytes: if last { write_bytes } else { 0 },
                            memory_bytes: sub_in + st.out_bytes,
                            preferred_nodes: Vec::new(),
                            pinned_node: None,
                        });
                    }
                }
                None => specs.push(base_spec),
            }
            last_spec_of_task.push(specs.len() - 1);
        }
        StageSpecs {
            specs,
            last_spec_of_task,
            unsplit: keep_unsplit.then_some(unsplit),
        }
    }

    // ------------------------------------------------------------------
    // Phase 4: fault injection, simulation, memory reservation
    // ------------------------------------------------------------------

    /// Charges the stage to the simulated cluster: per-task fault draws
    /// perturb the specs, the simulator places and times them, placements
    /// anchor co-partitioned indices, and the stage's execution working
    /// set is reserved (under a budget, possibly evicting cached data).
    fn charge_stage(
        &mut self,
        cx: &StageCtx<'_>,
        specs: &mut [TaskSpec],
        split_active: bool,
    ) -> simcluster::StageTiming {
        let (gid, job_id) = (cx.gid, cx.job_id);
        let stage_faults = self.inject_task_faults(specs, gid);
        let timing = self.sim.run_stage(specs);
        if let Some((retried, failures, corrupt)) = stage_faults {
            self.emit_fault_event(
                &format!("j{job_id}.s{gid} retries"),
                "retry",
                vec![
                    ("stage", (gid as u64).into()),
                    ("retried_tasks", retried.into()),
                    ("injected_failures", failures.into()),
                    ("corrupt_chunks", corrupt.into()),
                ],
            );
        }
        // Anchor co-partitioned indices for subsequent same-scheme stages.
        // Split stages don't anchor: spec indices ≠ partition indices.
        if self.options.copartition_scheduling && !split_active {
            if let Some(s) = cx.root_scheme {
                for (i, t) in timing.tasks.iter().enumerate() {
                    self.anchors
                        .entry((s.kind, s.partitions, i))
                        .or_insert(t.node);
                }
            }
        }
        // Execution borrows from storage: reserve before the stage's
        // captures ask the memory manager for room.
        let mut reserve = vec![0u64; self.options.cluster.num_nodes()];
        for (spec, t) in specs.iter().zip(&timing.tasks) {
            reserve[t.node] = reserve[t.node].max(spec.memory_bytes);
        }
        self.book(|mem, refs| mem.set_execution_reservation(&reserve, refs));
        timing
    }

    // ------------------------------------------------------------------
    // Phase 5: persist cache captures
    // ------------------------------------------------------------------

    fn persist_captures(&mut self, cx: &StageCtx<'_>, outs: &[TaskOut], homes: &[NodeId]) {
        let stage = cx.stage();
        let root_rdd = stage.root_rdd();
        let root_part = self.root_partitioning(cx.plan, stage);
        let mut capture_map: HashMap<Rdd, Vec<Arc<Vec<Record>>>> = HashMap::new();
        for out in outs {
            for (rdd, data) in &out.captures {
                capture_map.entry(*rdd).or_default().push(Arc::clone(data));
            }
        }
        // Deterministic insertion order: under a memory budget the
        // insertion order decides who evicts whom, so hash-map order
        // would leak into results.
        let mut captures: Vec<(Rdd, Vec<Arc<Vec<Record>>>)> = capture_map.into_iter().collect();
        captures.sort_by_key(|(r, _)| r.0);
        for (rdd, parts) in captures {
            if parts.len() != outs.len() || self.materialized.contains_key(&rdd) {
                continue;
            }
            let partitioning = if rdd == root_rdd {
                root_part
            } else {
                self.partitioning_at(root_part, &stage.chain, rdd)
            };
            // The producing stage consumes the capture inline unless the
            // capture is the stage's final result — that consumption has
            // already burned one lineage reference.
            if !(rdd == stage.terminal && matches!(stage.output, StageOutput::Result)) {
                *self.reads_done.entry(rdd).or_insert(0) += 1;
            }
            let mut per_node = vec![0u64; self.options.cluster.num_nodes()];
            for (part, &home) in parts.iter().zip(homes) {
                per_node[home] += batch_size(part);
            }
            self.materialized.insert(
                rdd,
                Materialized {
                    parts,
                    homes: homes.to_vec(),
                    partitioning,
                    producer_stage: cx.gid,
                },
            );
            let id = rdd.0 as u64;
            self.book(|mem, refs| mem.insert(id, per_node.clone(), refs));
            if self.mem.is_spilled(id) {
                // No room even with every eligible victim gone: the
                // capture goes straight to disk, a transfer of its own
                // after the victims'.
                self.write_spills(&[Eviction {
                    id,
                    bytes: per_node,
                }]);
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 6: metrics and trace
    // ------------------------------------------------------------------

    /// Stage metrics. `fetches` are the pre-injection spec fetch tables,
    /// one per simulated task: identical to the tasks' own reads for
    /// unsplit stages (specs clone them verbatim), and correctly per-sub
    /// for split stages.
    fn stage_metrics<'f>(
        &self,
        cx: &StageCtx<'_>,
        outs: &[TaskOut],
        writes: Option<&[MapWrite]>,
        fetches: impl Iterator<Item = &'f [(NodeId, u64)]> + Clone,
        timing: &simcluster::StageTiming,
        parents: Vec<usize>,
    ) -> StageMetrics {
        let stage = cx.stage();
        let shuffle_read_bytes: u64 = match &stage.root {
            StageRoot::ShuffleRead { .. } | StageRoot::JoinRead { .. } => {
                fetches.clone().flatten().map(|(_, b)| *b).sum()
            }
            _ => 0,
        };
        let remote_read_bytes: u64 = fetches
            .zip(&timing.tasks)
            .flat_map(|(f, t)| {
                f.iter()
                    .filter(move |(src, _)| *src != t.node)
                    .map(|(_, b)| *b)
            })
            .sum();
        let user_fixed = |rdd: &Rdd| self.graph.node(*rdd).user_fixed;
        let (kind, configurable) = match &stage.root {
            StageRoot::Source(rdd) => (StageKind::Source, !user_fixed(rdd)),
            StageRoot::ShuffleRead { wide, .. } => (StageKind::Shuffle, !user_fixed(wide)),
            StageRoot::JoinRead { wide, .. } => (StageKind::Join, !user_fixed(wide)),
            StageRoot::CachedRead(_) => (StageKind::Cached, false),
        };
        let root_node = self.graph.node(stage.root_rdd());
        let terminal_node = self.graph.node(stage.terminal);
        StageMetrics {
            stage_id: cx.gid,
            job_id: cx.job_id,
            name: terminal_node.tag.to_string(),
            root_signature: root_node.signature,
            terminal_signature: terminal_node.signature,
            kind,
            // Source stages report the scheme-equivalent of their split
            // count so the optimizer can reason about them uniformly.
            scheme: cx.root_scheme.or(Some(PartitionerSpec::hash(cx.num_tasks))),
            configurable,
            user_fixed: root_node.user_fixed,
            // Virtual tasks actually simulated — exceeds the physical
            // partition count when an adaptive split fired.
            num_tasks: timing.tasks.len(),
            input_records: outs.iter().map(|o| o.input_records).sum(),
            input_bytes: outs.iter().map(|o| o.input_bytes).sum(),
            output_records: outs.iter().map(|o| o.out_records).sum(),
            output_bytes: outs.iter().map(|o| o.out_bytes).sum(),
            shuffle_read_bytes,
            shuffle_write_bytes: writes.map_or(0, |w| w.iter().flat_map(|w| &w.runs.bytes).sum()),
            remote_read_bytes,
            start: timing.start,
            end: timing.end,
            task_durations: timing.tasks.iter().map(|t| t.duration()).collect(),
            placements: timing.tasks.clone(),
            parents,
        }
    }

    /// Records an adaptive split decision on the driver track.
    fn trace_split(&self, cx: &StageCtx<'_>, sp: &crate::adaptive::SplitPlan) {
        use trace::{pids, Clock, Track};
        let (gid, job_id) = (cx.gid, cx.job_id);
        let hot = sp.subs.iter().filter(|&&k| k > 1).count();
        self.options.trace.instant(
            Clock::Virtual,
            Track::new(pids::DRIVER, 0),
            format!("j{job_id}.s{gid} adaptive split"),
            "adaptive",
            self.sim.clock(),
            vec![
                ("stage", gid.into()),
                ("job", job_id.into()),
                ("hot_partitions", hot.into()),
                ("physical_tasks", cx.num_tasks.into()),
                ("virtual_tasks", sp.total_tasks().into()),
            ],
        );
    }

    /// Purely observational: reads `timing` / `metrics` after the
    /// simulation advanced, so traced and untraced runs produce
    /// bit-identical stage timings. Virtual-clock events are emitted on
    /// the driver thread in stage order, which keeps the virtual trace
    /// slice deterministic across host worker counts; the one wall span
    /// covers the stage's task phase on the host pool.
    fn trace_stage(
        &self,
        cx: &StageCtx<'_>,
        metrics: &StageMetrics,
        timing: &simcluster::StageTiming,
        wall: (f64, f64),
    ) {
        use trace::{pids, Clock, Track};
        let sink = &self.options.trace;
        let (gid, job_id) = (cx.gid, cx.job_id);
        sink.span(
            Clock::Virtual,
            Track::new(pids::DRIVER, 0),
            format!("j{job_id}.s{gid} {}", metrics.name),
            "stage",
            timing.start,
            timing.end,
            vec![
                ("stage", gid.into()),
                ("job", job_id.into()),
                ("tasks", metrics.num_tasks.into()),
                ("kind", format!("{:?}", metrics.kind).into()),
                ("skew", metrics.task_skew().into()),
                ("shuffle_read_bytes", metrics.shuffle_read_bytes.into()),
                ("shuffle_write_bytes", metrics.shuffle_write_bytes.into()),
            ],
        );
        let shuf = Track::new(pids::DRIVER, 1);
        if !sink.has_thread_name(shuf) {
            sink.name_thread(shuf, "shuffle bytes");
        }
        for (name, at, bytes) in [
            (
                "shuffle_read_bytes",
                timing.start,
                metrics.shuffle_read_bytes,
            ),
            ("remote_read_bytes", timing.start, metrics.remote_read_bytes),
            (
                "shuffle_write_bytes",
                timing.end,
                metrics.shuffle_write_bytes,
            ),
        ] {
            sink.counter(Clock::Virtual, shuf, name, "shuffle", at, bytes as f64);
        }
        simcluster::emit_stage_trace(
            sink,
            &self.options.cluster,
            timing,
            &format!("j{job_id}.s{gid}"),
            gid,
        );
        let stages = Track::new(pids::POOL, 2);
        if !sink.has_thread_name(stages) {
            sink.name_thread(stages, "pipeline stages");
        }
        sink.span(
            Clock::Wall,
            stages,
            format!("pipeline j{job_id}.p{} {}", cx.plan_idx, metrics.name),
            "pipeline",
            wall.0,
            wall.1,
            vec![("tasks", cx.num_tasks.into())],
        );
    }

    // ------------------------------------------------------------------
    // The cache ledger
    // ------------------------------------------------------------------

    /// Snapshot of the memory-manager counters (evictions, spills,
    /// rereads, released entries).
    pub fn mem_counters(&self) -> MemCounters {
        self.mem.counters()
    }

    /// The one place cached data changes where it lives. `op` books the
    /// movement — a capture admitted, a stage's execution reservation, a
    /// lost node's partitions re-homed, an `uncache` — in the memory
    /// manager and returns the entries the manager pushed to disk to make
    /// room; their spill files are written and the simulator's residency
    /// becomes the ledger's, so the books agree after every movement.
    /// `op` is handed the remaining-reference lookup, which the manager
    /// calls only while it ranks victims: a run that never overflows
    /// never walks the graph.
    fn book(&mut self, op: impl FnOnce(&mut MemoryManager, memman::RefsOf) -> Vec<Eviction>) {
        let (graph, reads_done) = (&self.graph, &self.reads_done);
        let evicted = op(&mut self.mem, &|id| {
            remaining_refs(graph, reads_done, Rdd(id as usize))
        });
        self.write_spills(&evicted);
        self.sim.set_resident(self.mem.storage_used());
    }

    /// Entries the ledger just moved to disk: write each partition's spill
    /// file on its home node and charge the writes as one parallel disk
    /// transfer. The host-side `Arc`s stay, so reread data is
    /// byte-identical.
    fn write_spills(&mut self, spilled: &[Eviction]) {
        if spilled.is_empty() {
            return;
        }
        let mut spill_write = vec![0u64; self.options.cluster.num_nodes()];
        for ev in spilled {
            let rdd = Rdd(ev.id as usize);
            let mat = &self.materialized[&rdd];
            for (i, part) in mat.parts.iter().enumerate() {
                self.store
                    .create_file_on(&spill_name(rdd, i), batch_size(part), mat.homes[i]);
            }
            for (w, b) in spill_write.iter_mut().zip(&ev.bytes) {
                *w += b;
            }
            self.emit_mem_event(ev);
        }
        self.sim.charge_disk_io(&spill_write, true);
    }

    /// Trace a spill on the driver's memory lane.
    fn emit_mem_event(&self, ev: &Eviction) {
        let sink = &self.options.trace;
        if !sink.is_enabled() {
            return;
        }
        use trace::{pids, Clock, Track};
        let track = Track::new(pids::DRIVER, 2);
        if !sink.has_thread_name(track) {
            sink.name_thread(track, "memory manager");
        }
        let bytes: u64 = ev.bytes.iter().sum();
        let refs = remaining_refs(&self.graph, &self.reads_done, Rdd(ev.id as usize));
        sink.instant(
            Clock::Virtual,
            track,
            format!("spill r{}", ev.id),
            "spill",
            self.sim.clock(),
            vec![("bytes", bytes.into()), ("refs", refs.into())],
        );
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    /// Applies every fault-plan event whose virtual time has passed:
    /// slow-node multipliers and node losses. A lost node is blacklisted
    /// in the simulation — subsequent stages schedule around it — and its
    /// data is recovered via [`Context::recover_lost_node`].
    fn apply_due_faults(&mut self, shuffles: &mut [Option<ShuffleData>]) {
        let now = self.sim.clock();
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        let mut slow = Vec::new();
        while fs.next_straggler < fs.stragglers.len() && fs.stragglers[fs.next_straggler].at <= now
        {
            let s = fs.stragglers[fs.next_straggler];
            fs.next_straggler += 1;
            if !self.sim.failed_nodes()[s.node] {
                fs.counters.stragglers_applied += 1;
                self.sim.set_slowdown(s.node, s.factor);
                slow.push(s);
            }
        }
        // Every node due at this boundary goes down before any of them is
        // recovered, so nothing re-homes onto (or recomputes on) a node
        // that dies at the same instant.
        let mut lost = Vec::new();
        while fs.next_loss < fs.losses.len() && fs.losses[fs.next_loss].at <= now {
            let node = fs.losses[fs.next_loss].node;
            fs.next_loss += 1;
            if !self.sim.failed_nodes()[node] {
                self.sim.fail_node(node);
                fs.counters.nodes_lost += 1;
                lost.push(node);
            }
        }
        for s in slow {
            self.emit_fault_event(
                &format!("slow node {}", s.node),
                "straggler",
                vec![("node", s.node.into()), ("factor", s.factor.into())],
            );
        }
        for node in lost {
            self.emit_fault_event(
                &format!("node {node} lost"),
                "node-loss",
                vec![("node", node.into())],
            );
            self.recover_lost_node(node, shuffles);
        }
    }

    /// Recovers the data that died with `node`, replicas first, recompute
    /// second: cached partitions re-home to surviving nodes at the cost
    /// of a network copy plus a replica disk read (their host-side `Arc`s
    /// never left driver memory, so results are untouched), while lost
    /// shuffle map outputs — which have no replicas — are recomputed
    /// through lineage by re-running their retained task specs on the
    /// surviving topology. The re-homing is a ledger move like any other:
    /// a survivor pushed over its budget spills its LRC victims,
    /// and a partition that was on the lost node's disk lands on its new
    /// home's disk.
    /// Only placements and the virtual clock change.
    fn recover_lost_node(&mut self, node: NodeId, shuffles: &mut [Option<ShuffleData>]) {
        let num_nodes = self.options.cluster.num_nodes();
        // Survivors ordered by node id: re-home targets round-robin over
        // this list so recovery is deterministic regardless of map
        // iteration order and balanced across the shrunk cluster. The
        // simulator refuses to fail its last node, so there is one.
        let down = self.sim.failed_nodes();
        let survivors: Vec<NodeId> = (0..num_nodes).filter(|&n| !down[n]).collect();

        // Cached partitions, in RDD-id order for determinism.
        let mut moves: Vec<(Rdd, usize, u64)> = Vec::new();
        let mut rdds: Vec<Rdd> = self.materialized.keys().copied().collect();
        rdds.sort_by_key(|r| r.0);
        for rdd in rdds {
            let mat = &self.materialized[&rdd];
            for i in 0..mat.homes.len() {
                if mat.homes[i] == node {
                    moves.push((rdd, i, batch_size(&mat.parts[i])));
                }
            }
        }
        if !moves.is_empty() {
            let mut replica_read = vec![0u64; num_nodes];
            let mut respilled = vec![0u64; num_nodes];
            let mut ledger_moves = Vec::with_capacity(moves.len());
            let mut moved_bytes = 0u64;
            for (k, &(rdd, i, bytes)) in moves.iter().enumerate() {
                let new_home = survivors[k % survivors.len()];
                self.materialized
                    .get_mut(&rdd)
                    .expect("key just listed")
                    .homes[i] = new_home;
                if self.mem.is_spilled(rdd.0 as u64) {
                    self.store
                        .create_file_on(&spill_name(rdd, i), bytes, new_home);
                    respilled[new_home] += bytes;
                }
                ledger_moves.push((rdd.0 as u64, new_home, bytes));
                replica_read[new_home] += bytes;
                moved_bytes += bytes;
            }
            // The surviving replica also crosses the network to its new
            // home; charge those transfers as contended flows. Source
            // selection is deterministic: the survivor after the new home
            // in id order holds the replica (with a single survivor the
            // copy is node-local and free).
            let transfers: Vec<(NodeId, NodeId, u64)> = moves
                .iter()
                .enumerate()
                .map(|(k, &(_, _, bytes))| {
                    let new_home = survivors[k % survivors.len()];
                    let src = survivors[(k + 1) % survivors.len()];
                    (src, new_home, bytes)
                })
                .collect();
            self.sim.charge_replica_transfers(&transfers);
            self.sim.charge_disk_io(&replica_read, false);
            self.sim.charge_disk_io(&respilled, true);
            self.book(|mem, refs| mem.rehome(node, &ledger_moves, refs));
            let fs = self.faults.as_mut().expect("fault state present");
            fs.counters.replica_rehomed_partitions += moves.len() as u64;
            fs.counters.replica_read_bytes += moved_bytes;
            self.emit_fault_event(
                &format!("re-home {} cached partitions", moves.len()),
                "rehome",
                vec![
                    ("node", node.into()),
                    ("partitions", moves.len().into()),
                    ("bytes", moved_bytes.into()),
                ],
            );
        }

        // Lost shuffle map outputs: recompute only the missing partitions.
        let mut total_recomputed = 0u64;
        for sdata in shuffles.iter_mut() {
            let Some(data) = sdata else { continue };
            if data.specs.is_empty() {
                continue;
            }
            let lost_idx: Vec<usize> = data
                .nodes
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n == node)
                .map(|(m, _)| m)
                .collect();
            if lost_idx.is_empty() {
                continue;
            }
            let respecs: Vec<TaskSpec> = lost_idx
                .iter()
                .map(|&m| {
                    let mut sp = data.specs[m].clone();
                    if sp.pinned_node == Some(node) {
                        sp.pinned_node = None;
                    }
                    sp
                })
                .collect();
            let timing = self.sim.run_stage(&respecs);
            for (j, &m) in lost_idx.iter().enumerate() {
                data.nodes[m] = timing.tasks[j].node;
            }
            total_recomputed += lost_idx.len() as u64;
            let producer = data.producer_gid;
            if let Some(track) = self.fault_lane() {
                self.options.trace.span(
                    trace::Clock::Virtual,
                    track,
                    format!("recompute s{producer}"),
                    "recompute",
                    timing.start,
                    timing.end,
                    vec![
                        ("stage", producer.into()),
                        ("map_tasks", lost_idx.len().into()),
                    ],
                );
            }
        }
        if total_recomputed > 0 {
            let fs = self.faults.as_mut().expect("fault state present");
            fs.counters.recomputed_map_tasks += total_recomputed;
        }
    }

    /// Applies per-task fault draws to the freshly built task specs:
    /// failed attempts re-charge the task's full compute cost plus an
    /// exponential backoff, and corrupt shuffle chunks are fetched twice.
    /// Only the *simulated* specs change — the host data plane and every
    /// metrics byte table are built from `preps`, which is what keeps
    /// faulted runs bit-identical in results to fault-free ones. Returns
    /// `(retried_tasks, injected_failures, corrupt_chunks)` for this
    /// stage when anything was injected.
    fn inject_task_faults(
        &mut self,
        specs: &mut [TaskSpec],
        gid: usize,
    ) -> Option<(u64, u64, u64)> {
        // Backoff is virtual wall-time, but compute cost is divided by
        // node speed at placement; convert at the fastest node's speed so
        // the charged wait is at least the configured backoff anywhere.
        let ref_speed = self
            .options
            .cluster
            .nodes
            .iter()
            .map(|n| n.speed)
            .fold(1.0f64, f64::max);
        let fs = self.faults.as_mut()?;
        let FaultState { plan, counters, .. } = fs;
        if plan.task_fail_prob <= 0.0 && plan.corrupt_prob <= 0.0 {
            return None;
        }
        let mut retried = 0u64;
        let mut failures_total = 0u64;
        let mut corrupt = 0u64;
        for (i, spec) in specs.iter_mut().enumerate() {
            let attempts = plan.attempts(gid as u64, i as u64);
            let failures = attempts - 1;
            if failures > 0 {
                let backoff = plan.backoff(failures);
                spec.compute_cost = spec.compute_cost * attempts as f64 + backoff * ref_speed;
                counters.injected_failures += failures as u64;
                counters.retried_tasks += 1;
                counters.backoff_s += backoff;
                if failures == plan.max_task_retries {
                    counters.exhausted_retries += 1;
                }
                retried += 1;
                failures_total += failures as u64;
            }
            if plan.corrupt_prob > 0.0 {
                // Draw per original fetch entry; a corrupt chunk is
                // detected on arrival and fetched again from its source.
                let original = spec.fetches.len();
                for ci in 0..original {
                    let (src, bytes) = spec.fetches[ci];
                    if bytes > 0 && plan.corrupt_chunk(gid as u64, i as u64, ci as u64) {
                        spec.fetches.push((src, bytes));
                        spec.fetch_chunks += 1;
                        counters.corrupt_chunks += 1;
                        counters.refetched_bytes += bytes;
                        corrupt += 1;
                    }
                }
            }
        }
        if retried + corrupt > 0 {
            Some((retried, failures_total, corrupt))
        } else {
            None
        }
    }

    /// The fault-recovery trace lane; `None` when tracing is off.
    fn fault_lane(&self) -> Option<trace::Track> {
        let sink = &self.options.trace;
        if !sink.is_enabled() {
            return None;
        }
        let track = trace::Track::new(trace::pids::DRIVER, 3);
        if !sink.has_thread_name(track) {
            sink.name_thread(track, "fault recovery");
        }
        Some(track)
    }

    /// Emits an instant on the fault-recovery trace lane.
    fn emit_fault_event(
        &self,
        name: &str,
        cat: &'static str,
        args: Vec<(&'static str, trace::ArgValue)>,
    ) {
        if let Some(track) = self.fault_lane() {
            let (name, now) = (name.to_string(), self.sim.clock());
            self.options
                .trace
                .instant(trace::Clock::Virtual, track, name, cat, now, args);
        }
    }
}

/// Remaining references of a booked cache entry: graph children not yet
/// served a read, and at least the one pin reference the driver holds
/// until [`Context::uncache`] (which releases the entry on the spot, so
/// every booked entry is pinned). The pin keeps a lineage-idle cache
/// between jobs of a lazily built DAG — an iterative driver re-reads it
/// with consumers that do not exist in the graph yet — which is why a
/// victim is always spilled, never dropped: under pressure an idle entry
/// ranks first for eviction, but it must stay readable.
fn remaining_refs(graph: &RddGraph, reads_done: &HashMap<Rdd, usize>, rdd: Rdd) -> usize {
    graph
        .child_count(rdd)
        .saturating_sub(reads_done.get(&rdd).copied().unwrap_or(0))
        .max(1)
}

/// Name of the spill file backing partition `part` of a cached RDD.
fn spill_name(rdd: Rdd, part: usize) -> String {
    format!("__spill/r{}.p{}", rdd.0, part)
}

/// Aggregates `(node, bytes)` pairs by node, dropping empty transfers.
fn aggregate_fetches<'a, I>(pairs: I) -> Vec<(NodeId, u64)>
where
    I: IntoIterator<Item = (&'a NodeId, u64)>,
{
    let mut per_node: HashMap<NodeId, u64> = HashMap::new();
    for (&node, bytes) in pairs {
        if bytes > 0 {
            *per_node.entry(node).or_insert(0) += bytes;
        }
    }
    let mut v: Vec<(NodeId, u64)> = per_node.into_iter().collect();
    v.sort_unstable();
    v
}

/// The plan stage being executed and its identifiers, shared by every
/// phase of [`Context::exec_stage`].
struct StageCtx<'p> {
    plan: &'p Plan,
    plan_idx: usize,
    /// Global stage id (unique across jobs within a context).
    gid: usize,
    job_id: usize,
    num_tasks: usize,
    /// Scheme the stage's root was shuffled under, if it reads a shuffle.
    root_scheme: Option<PartitionerSpec>,
}

impl StageCtx<'_> {
    fn stage(&self) -> &PlanStage {
        &self.plan.stages[self.plan_idx]
    }
}

/// What the simulator charges one task for reading its input, and where
/// the task would like to run.
#[derive(Default)]
struct TaskReads {
    fetches: Vec<(NodeId, u64)>,
    fetch_chunks: usize,
    local_read_bytes: u64,
    preferred: Vec<NodeId>,
}

/// The virtual-side view of a stage's inputs (see
/// [`Context::resolve_inputs`]).
#[derive(Default)]
struct StageReads {
    tasks: Vec<TaskReads>,
    parents_gids: Vec<usize>,
    /// Cached RDDs consumed by this stage, for lineage ref-counting.
    cached_reads: Vec<Rdd>,
    /// `None` when `--adaptive off`, the stage is ineligible, or the
    /// column skew sits below the trigger.
    split_plan: Option<crate::adaptive::SplitPlan>,
    /// Producer task placements, kept for per-sub fetch construction.
    producer_nodes: Vec<NodeId>,
}

/// Simulator specs of one stage (see [`Context::build_specs`]).
struct StageSpecs {
    specs: Vec<TaskSpec>,
    last_spec_of_task: Vec<usize>,
    /// As-if-unsplit specs, retained for lineage recovery when a split
    /// fired under a fault plan.
    unsplit: Option<Vec<TaskSpec>>,
}

impl Materialized {
    /// How partition `i` is read: from its home node's memory, or — once
    /// the ledger has the entry `spilled` — from that node's local disk.
    fn read_of(&self, i: usize, spilled: bool) -> TaskReads {
        let bytes = batch_size(&self.parts[i]);
        let mut t = TaskReads {
            fetch_chunks: usize::from(!self.parts[i].is_empty()),
            ..TaskReads::default()
        };
        if spilled {
            t.local_read_bytes = bytes;
        } else {
            t.fetches = vec![(self.homes[i], bytes)];
        }
        t
    }
}

impl ShuffleData {
    /// What reduce partition `col` fetches: bytes per producer node, one
    /// chunk per map task with data for it.
    fn read_of(&self, col: usize) -> TaskReads {
        TaskReads {
            fetches: aggregate_fetches(self.nodes.iter().zip(self.bytes.iter().map(|b| b[col]))),
            fetch_chunks: self.bytes.iter().filter(|b| b[col] > 0).count(),
            ..TaskReads::default()
        }
    }

    /// Bytes written per reduce partition (column sums of the byte table).
    fn column_bytes(&self) -> Vec<u64> {
        let p = self.bytes.first().map_or(0, Vec::len);
        (0..p)
            .map(|i| self.bytes.iter().map(|b| b[i]).sum())
            .collect()
    }

    /// Hands map task `m`'s run for reduce partition `col` to `push` and
    /// returns its record count. Row records are moved out in place under
    /// the row's lock — no per-reducer copy of a column ever exists, and
    /// the row's one allocation is freed with the table, by the driver —
    /// or lent when the shuffle has more than one read. An empty run is
    /// skipped on the byte table, without touching the lock.
    fn with_run(&self, m: usize, col: usize, push: &mut impl FnMut(Run<'_>)) -> u64 {
        if self.bytes[m][col] == 0 {
            return 0;
        }
        let (start, end) = (self.offsets[m][col], self.offsets[m][col + 1]);
        let mut row = lock(&self.rows[m]);
        match &mut *row {
            Runs::Rows(records) if self.shared => push(Run::Shared(&records[start..end])),
            Runs::Rows(records) => push(Run::Moved(&mut records[start..end])),
            Runs::Cols(batch) => {
                let slice = batch.slice(start, end - start);
                drop(row);
                push(Run::Cols(slice));
            }
        }
        (end - start) as u64
    }

    /// Feeds reduce partition `col`'s runs to `push` in map-task order;
    /// returns the records and bytes fetched.
    fn drain_column(&self, col: usize, mut push: impl FnMut(Run<'_>)) -> (u64, u64) {
        let (mut fetched, mut bytes) = (0u64, 0u64);
        for m in 0..self.rows.len() {
            fetched += self.with_run(m, col, &mut push);
            bytes += self.bytes[m][col];
        }
        (fetched, bytes)
    }
}

#[derive(Clone)]
pub(crate) enum MergeKind {
    Reduce(ReduceFn, f64),
    Group(f64),
    Concat,
}

/// Where one join side's data comes from.
enum JoinSide<'s> {
    /// A shuffle, consumed run by run in map order.
    Shuffle(&'s ShuffleData),
    /// A materialized co-partitioned RDD: partition `i` feeds task `i`,
    /// from disk when the ledger has the entry spilled.
    Narrow(&'s Materialized, bool),
}

impl JoinSide<'_> {
    fn read_of(&self, i: usize) -> TaskReads {
        match self {
            JoinSide::Shuffle(data) => data.read_of(i),
            JoinSide::Narrow(mat, spilled) => mat.read_of(i, *spilled),
        }
    }

    /// Feeds partition `col` of this side to `push`; returns the records
    /// and bytes fetched.
    fn drain(&self, col: usize, mut push: impl FnMut(Run<'_>)) -> (u64, u64) {
        match self {
            JoinSide::Shuffle(data) => data.drain_column(col, push),
            JoinSide::Narrow(mat, _) => {
                let part = &mat.parts[col];
                push(Run::Shared(part));
                (part.len() as u64, batch_size(part))
            }
        }
    }
}

/// The data-plane view of a stage's inputs: what task `i` of `n` reads.
enum StageInput<'s> {
    /// Slice `i` of an in-memory collection.
    Slice(&'s Arc<Vec<Record>>),
    /// Split `i` of a deterministic generator.
    Gen {
        gen: &'s GenFn,
        cost_per_record: f64,
    },
    /// Partition `i` of a cached RDD.
    Cached(&'s [Arc<Vec<Record>>]),
    /// Column `i` of a shuffle, merged as the wide op prescribes. Hot
    /// columns of `split` merge as several sub-tasks (see
    /// [`crate::adaptive`]); `split_seed` feeds their sub-bound samples.
    Shuffle {
        data: &'s ShuffleData,
        merge: MergeKind,
        split: Option<crate::adaptive::SplitPlan>,
        split_seed: u64,
    },
    /// Partition `i` of both sides of a join or co-group.
    Join {
        left: JoinSide<'s>,
        right: JoinSide<'s>,
        is_join: bool,
        cost: f64,
    },
}

/// How a stage's tasks bucketize their output for the shuffle they feed.
struct ShuffleWriter {
    spec: PartitionerSpec,
    /// Map-side combine function (reduce-by-key consumers only).
    combine: Option<ReduceFn>,
    combine_cost: f64,
    /// Seeds the range bounds and the per-task key samples.
    seed: u64,
    /// Columnar data plane enabled ([`EngineOptions::batch`]).
    batch: bool,
}

/// One map task's shuffle output.
struct MapWrite {
    runs: TaskRuns,
    /// Compute charged for partitioning, combining and range sampling.
    cost: f64,
}

impl ShuffleWriter {
    fn is_range(&self) -> bool {
        self.spec.kind == PartitionerKind::Range
    }

    /// Orders a finished task's records by reduce partition, *moving* them
    /// when the task owns its output (the common case) and cloning when
    /// the records window a shared cache partition. Combine-free writes go
    /// through a typed column batch when the keys fit one; every path
    /// produces identical run contents and byte tables.
    fn write(
        &self,
        records: TaskRecords,
        partitioner: &dyn Partitioner,
        arena: &mut TaskArena,
    ) -> MapWrite {
        let n = records.len() as u64;
        let columnar = (self.batch && self.combine.is_none())
            .then(|| {
                crate::shuffle::bucketize_columnar_runs(records.as_slice(), partitioner, arena)
            })
            .flatten();
        let (runs, combine_ops) = match (columnar, records) {
            (Some(runs), _) => (runs, 0),
            (None, TaskRecords::Owned(v)) => {
                crate::shuffle::bucketize_runs(v, partitioner, self.combine.as_ref(), arena)
            }
            (None, shared) => crate::shuffle::bucketize_runs_shared(
                shared.as_slice(),
                partitioner,
                self.combine.as_ref(),
                arena,
            ),
        };
        self.charged(runs, n, combine_ops)
    }

    /// Closes a streamed combining write: the sink has already folded
    /// every record the task's chain produced.
    fn finish(&self, sink: CombineSink<'_>) -> MapWrite {
        let (runs, combine_ops) = sink.combiner.finish();
        self.charged(runs, sink.records, combine_ops)
    }

    /// `runs` with the compute charged for writing them: partitioning (and
    /// range sampling) per record the task produced, `n` of them, plus the
    /// combine applications.
    fn charged(&self, runs: TaskRuns, n: u64, combine_ops: u64) -> MapWrite {
        let n = n as f64;
        let mut cost = n * PARTITION_COST + combine_ops as f64 * self.combine_cost;
        if self.is_range() {
            cost += n * SAMPLE_COST;
        }
        MapWrite { runs, cost }
    }
}

/// Per-task reservoir sampling for range-partitioned shuffle writes: each
/// map task samples its own output during the compute pass instead of a
/// serial driver-side scan over every task's records.
struct SampleSpec {
    /// Reservoir capacity per task.
    cap: usize,
    /// Stage-level seed; each task derives its own stream from it.
    seed: u64,
}

/// A task's output records: either owned by the task, or a window into a
/// shared source/cache partition that the narrow chain never needed to copy.
enum TaskRecords {
    Owned(Vec<Record>),
    Shared(Arc<Vec<Record>>, usize, usize),
}

impl Default for TaskRecords {
    fn default() -> Self {
        TaskRecords::Owned(Vec::new())
    }
}

impl TaskRecords {
    fn as_slice(&self) -> &[Record] {
        match self {
            TaskRecords::Owned(v) => v,
            TaskRecords::Shared(data, start, end) => &data[*start..*end],
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

/// Captures the records for cache persistence and leaves the task reading
/// the captured partition. Nothing is copied: an owned vector moves into
/// its `Arc`, a shared window covering a whole partition is captured as
/// that partition (only a partial window of a source collection is cloned).
fn capture(records: &mut TaskRecords) -> Arc<Vec<Record>> {
    let part = match std::mem::take(records) {
        TaskRecords::Owned(v) => Arc::new(v),
        TaskRecords::Shared(data, start, end) if start == 0 && end == data.len() => data,
        TaskRecords::Shared(data, start, end) => Arc::new(data[start..end].to_vec()),
    };
    *records = TaskRecords::Shared(Arc::clone(&part), 0, part.len());
    part
}

struct TaskOut {
    /// The task's output; empty once a shuffle write has consumed it, and
    /// from the start when the task streamed it into one.
    records: TaskRecords,
    /// Count and encoded size of the records the task produced.
    out_records: u64,
    out_bytes: u64,
    cost: f64,
    input_records: u64,
    input_bytes: u64,
    captures: Vec<(Rdd, Arc<Vec<Record>>)>,
    /// Keys reservoir-sampled from the final records (range shuffles only).
    sample: Vec<Key>,
    /// Per-sub virtual-task statistics when this task ran as an adaptive
    /// split (`None` for unsplit tasks). The driver turns these into one
    /// `TaskSpec` per sub.
    sub_stats: Option<Vec<crate::adaptive::SubTaskStats>>,
}

/// One narrow op compiled for a fused streaming pass.
enum FusedOp<'g> {
    Map(&'g MapFn),
    FlatMap(&'g FlatMapFn),
    Filter(&'g FilterFn),
    Sample {
        fraction: f64,
        rng: numeric::XorShift64,
    },
}

/// A fused op plus its observed input count, so per-op compute cost can be
/// charged after the pass exactly as the op-at-a-time loop did.
struct OpState<'g> {
    op: FusedOp<'g>,
    inputs: u64,
}

/// Where a fused pass puts the records that survive it.
trait RecordSink {
    fn push<R: IntoRecord>(&mut self, rec: R);
}

/// Collects the pass's output; a borrowed record is cloned here.
impl RecordSink for Vec<Record> {
    fn push<R: IntoRecord>(&mut self, rec: R) {
        Vec::push(self, rec.into_record());
    }
}

/// A task's streamed shuffle write: counts and sizes every record the
/// narrow chain produces — the task's output as the metrics and the
/// simulator's memory charge see it — and folds it into the map-side
/// combine on the spot.
struct CombineSink<'a> {
    combiner: Combiner<'a>,
    records: u64,
    bytes: u64,
}

impl<'a> CombineSink<'a> {
    fn new(combiner: Combiner<'a>) -> Self {
        CombineSink {
            combiner,
            records: 0,
            bytes: 0,
        }
    }
}

impl RecordSink for CombineSink<'_> {
    #[inline]
    fn push<R: IntoRecord>(&mut self, rec: R) {
        self.records += 1;
        self.bytes += rec.borrow().encoded_size();
        self.combiner.push(rec);
    }
}

/// Streams one record, owned or borrowed, through the remaining fused
/// ops. A borrowed record is cloned only if the sink keeps it; whatever a
/// `Map`/`FlatMap` produces continues owned.
///
/// Records arrive at each op in the same order as the op-at-a-time loop
/// (every narrow op is order-preserving), so per-op `Sample` RNG draws are
/// bit-identical to the unfused execution.
fn feed<R: IntoRecord, S: RecordSink>(ops: &mut [OpState<'_>], rec: R, out: &mut S) {
    let Some((head, rest)) = ops.split_first_mut() else {
        out.push(rec);
        return;
    };
    head.inputs += 1;
    match &mut head.op {
        FusedOp::Map(f) => feed(rest, f(rec.borrow()), out),
        FusedOp::FlatMap(f) => {
            for r in f(rec.borrow()) {
                feed(rest, r, out);
            }
        }
        FusedOp::Filter(f) => {
            if f(rec.borrow()) {
                feed(rest, rec, out);
            }
        }
        FusedOp::Sample { fraction, rng } => {
            if rng.next_f64() < *fraction {
                feed(rest, rec, out);
            }
        }
    }
}

/// One fused pass: every record of `records` — moved if the task owns
/// them, lent if they window a shared partition — through `ops` into `out`.
fn feed_all<S: RecordSink>(records: TaskRecords, ops: &mut [OpState<'_>], out: &mut S) {
    match records {
        TaskRecords::Owned(v) => {
            for rec in v {
                feed(ops, rec, out);
            }
        }
        TaskRecords::Shared(data, start, end) => {
            for rec in &data[start..end] {
                feed(ops, rec, out);
            }
        }
    }
}

/// Task `index` of a stage's `of` tasks.
#[derive(Clone, Copy)]
struct TaskId {
    index: usize,
    of: usize,
}

/// A task's root input, materialized.
struct RootRead {
    records: TaskRecords,
    input_records: u64,
    input_bytes: u64,
    /// Generation or merge compute charged so far.
    cost: f64,
    sub_stats: Option<Vec<crate::adaptive::SubTaskStats>>,
}

/// Materializes task `task`'s root input.
///
/// Shuffle and join roots move their runs out of the producer's table
/// in map-task order and fold them straight into the streaming merge
/// accumulators — the merge sees the same record stream whatever the
/// worker count, so results, byte counts, range samples, and every
/// simulated cost are deterministic. Slice/Cached roots are borrowed, not
/// copied.
fn read_root(input: &StageInput<'_>, task: TaskId) -> RootRead {
    let i = task.index;
    let mut cost = 0.0;
    let mut sub_stats = None;
    let (records, input_records, input_bytes) = match input {
        StageInput::Slice(data) => {
            let (start, end) = (i * data.len() / task.of, (i + 1) * data.len() / task.of);
            let slice = &data[start..end];
            let shared = TaskRecords::Shared(Arc::clone(data), start, end);
            (shared, slice.len() as u64, batch_size(slice))
        }
        StageInput::Gen {
            gen,
            cost_per_record,
        } => {
            let records = gen(i, task.of);
            let b = batch_size(&records);
            let count = records.len() as u64;
            cost += count as f64 * cost_per_record;
            (TaskRecords::Owned(records), count, b)
        }
        StageInput::Cached(parts) => {
            let data = &parts[i];
            let shared = TaskRecords::Shared(Arc::clone(data), 0, data.len());
            (shared, data.len() as u64, batch_size(data))
        }
        StageInput::Shuffle {
            data,
            merge,
            split,
            split_seed,
        } => {
            let k = split.as_ref().map_or(1, |sp| sp.subs[i]);
            let (records, fetched, bytes) = if k > 1 {
                // Adaptive hot-partition split: take the column in map
                // order, route each record to one of `k` sub-buckets, and
                // merge each sub independently. The routing is
                // key-preserving, so aggregates match the unsplit merge;
                // concatenation in sub order keeps the output deterministic.
                let mut maps: Vec<Vec<Record>> = vec![Vec::new(); data.rows.len()];
                for (m, records) in maps.iter_mut().enumerate() {
                    data.with_run(m, i, &mut |run| *records = run.into_records());
                }
                let fetched: u64 = maps.iter().map(|b| b.len() as u64).sum();
                let bytes: u64 = data.bytes.iter().map(|b| b[i]).sum();
                let seed = split_seed ^ ((i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                let router = crate::adaptive::SubRouter::build(
                    maps.iter().flatten().map(|r| &r.key),
                    k,
                    seed,
                );
                let (records, merge_cost, stats) =
                    crate::adaptive::merge_split(maps, merge, &router);
                cost += merge_cost;
                sub_stats = Some(stats);
                (records, fetched, bytes)
            } else {
                let mut bytes = 0;
                let feed = |push: &mut dyn FnMut(Run<'_>)| {
                    let (fetched, b) = data.drain_column(i, push);
                    bytes = b;
                    fetched
                };
                let (records, fetched) = merge_runs(merge, feed, &mut cost);
                (records, fetched, bytes)
            };
            (TaskRecords::Owned(records), fetched, bytes)
        }
        StageInput::Join {
            left,
            right,
            is_join,
            cost: c,
        } => {
            // Left side fully, seal, then the right: the merge sees both
            // streams in map-task order.
            let (records, fetched, bytes) = if *is_join {
                let mut m = JoinMerge::new();
                let l = left.drain(i, |run| m.push_run(run, true));
                m.seal_left();
                let r = right.drain(i, |run| m.push_run(run, false));
                cost += (l.0 + r.0) as f64 * (MERGE_BASE_COST + c);
                let (out, probes) = m.finish();
                cost += probes as f64 * MERGE_BASE_COST;
                (out, l.0 + r.0, l.1 + r.1)
            } else {
                let mut m = CogroupMerge::new();
                let l = left.drain(i, |run| m.push_run(run, true));
                m.seal_left();
                let r = right.drain(i, |run| m.push_run(run, false));
                cost += (l.0 + r.0) as f64 * (MERGE_BASE_COST + c);
                (m.finish(), l.0 + r.0, l.1 + r.1)
            };
            (TaskRecords::Owned(records), fetched, bytes)
        }
    };
    RootRead {
        records,
        input_records,
        input_bytes,
        cost,
        sub_stats,
    }
}

/// The reduce-side merge of a single-parent wide op: `feed` pushes the
/// task's runs, in map-task order, into the accumulator `kind` calls for
/// and returns how many records that was. Returns the merged records and
/// that count; the merge compute is added to `cost`. A whole reduce
/// partition and each sub of an adaptively split one merge here, so both
/// charge in the same `f64` order.
pub(crate) fn merge_runs(
    kind: &MergeKind,
    feed: impl FnOnce(&mut dyn FnMut(Run<'_>)) -> u64,
    cost: &mut f64,
) -> (Vec<Record>, u64) {
    match kind {
        MergeKind::Reduce(f, c) => {
            let mut m = ReduceMerge::new(Arc::clone(f));
            let fetched = feed(&mut |run| m.push_run(run));
            *cost += fetched as f64 * MERGE_BASE_COST;
            let (out, ops) = m.finish();
            *cost += ops as f64 * c;
            (out, fetched)
        }
        MergeKind::Group(c) => {
            let mut m = GroupMerge::new();
            let fetched = feed(&mut |run| m.push_run(run));
            *cost += fetched as f64 * MERGE_BASE_COST;
            *cost += fetched as f64 * c;
            (m.finish(), fetched)
        }
        MergeKind::Concat => {
            let mut m = ConcatMerge::new();
            let fetched = feed(&mut |run| m.push_run(run));
            *cost += fetched as f64 * MERGE_BASE_COST;
            (m.finish(), fetched)
        }
    }
}

/// Runs one task: root input, narrow chain, cache captures, and — for
/// range-shuffle writes — a reservoir sample of the output keys.
/// `capture_root` names the root RDD when its output must be cached. With
/// a `stream`, the task's output goes into it record by record and
/// [`TaskOut::records`] stays empty.
fn compute_task(
    graph: &RddGraph,
    input: &StageInput<'_>,
    chain: &[Rdd],
    task: TaskId,
    capture_root: Option<Rdd>,
    range_sample: Option<&SampleSpec>,
    mut stream: Option<&mut CombineSink<'_>>,
) -> TaskOut {
    let mut root = read_root(input, task);
    let mut captures = Vec::new();
    if let Some(root_rdd) = capture_root {
        captures.push((root_rdd, capture(&mut root.records)));
    }
    let mut cost = root.cost;
    let records = run_chain(
        graph,
        chain,
        task.index,
        root.records,
        &mut cost,
        &mut captures,
        stream.as_deref_mut(),
    );
    let sample = match range_sample {
        Some(spec) => {
            let task_seed = spec.seed ^ ((task.index as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            let mut res = Reservoir::new(spec.cap, task_seed);
            for r in records.as_slice() {
                res.offer(r.key.clone());
            }
            res.into_items()
        }
        None => Vec::new(),
    };
    let (out_records, out_bytes) = match stream {
        Some(sink) => (sink.records, sink.bytes),
        None => (records.len() as u64, batch_size(records.as_slice())),
    };
    TaskOut {
        records,
        out_records,
        out_bytes,
        cost,
        input_records: root.input_records,
        input_bytes: root.input_bytes,
        captures,
        sample,
        sub_stats: root.sub_stats,
    }
}

/// Applies the narrow chain to `records` as fused streaming passes, one
/// per segment. A segment ends at (and includes) the next cached node:
/// its output is materialized, captured by move, and the task reads on
/// from the captured partition. The last pass writes into `stream` when
/// the task has one — with no ops left if the chain ended in a cached
/// node — and nothing is returned; without a stream the last pass's
/// output is returned, and an empty chain passes its input straight
/// through. Per-op compute is added to `cost`.
fn run_chain(
    graph: &RddGraph,
    chain: &[Rdd],
    task_index: usize,
    mut records: TaskRecords,
    cost: &mut f64,
    captures: &mut Vec<(Rdd, Arc<Vec<Record>>)>,
    mut stream: Option<&mut CombineSink<'_>>,
) -> TaskRecords {
    let mut counts: Vec<u64> = vec![0; chain.len()];
    let mut pos = 0;
    while pos < chain.len() || stream.is_some() {
        let seg_end = chain[pos..]
            .iter()
            .position(|&r| graph.node(r).cached)
            .map(|off| pos + off + 1)
            .unwrap_or(chain.len());
        let mut ops: Vec<OpState<'_>> = chain[pos..seg_end]
            .iter()
            .map(|&r| OpState {
                op: match &graph.node(r).op {
                    OpKind::Map { f } | OpKind::MapValues { f } => FusedOp::Map(f),
                    OpKind::FlatMap { f } => FusedOp::FlatMap(f),
                    OpKind::Filter { f } => FusedOp::Filter(f),
                    OpKind::Sample { fraction, seed } => FusedOp::Sample {
                        fraction: *fraction,
                        rng: numeric::XorShift64::new(seed ^ ((task_index as u64 + 1) * 0x9E37)),
                    },
                    other => unreachable!("wide op {other:?} inside a narrow chain"),
                },
                inputs: 0,
            })
            .collect();
        let cached = chain[pos..seg_end]
            .last()
            .filter(|&&r| graph.node(r).cached);
        let input = std::mem::take(&mut records);
        // A segment that ends in a cached node is never the streamed one.
        match stream.take_if(|_| cached.is_none()) {
            Some(sink) => feed_all(input, &mut ops, sink),
            None => {
                let mut out = Vec::new();
                feed_all(input, &mut ops, &mut out);
                records = TaskRecords::Owned(out);
                if let Some(&rdd) = cached {
                    captures.push((rdd, capture(&mut records)));
                }
            }
        }
        for (off, st) in ops.iter().enumerate() {
            counts[pos + off] = st.inputs;
        }
        pos = seg_end;
    }

    // Charge per-op compute cost in chain order, after the root costs —
    // the same f64 accumulation sequence as an op-at-a-time loop, so
    // simulated stage timings are bit-identical.
    for (i, &r) in chain.iter().enumerate() {
        *cost += counts[i] as f64 * graph.node(r).cost_per_record;
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Key, Value};
    use simcluster::uniform_cluster;

    fn test_options() -> EngineOptions {
        EngineOptions {
            cluster: uniform_cluster(3, 4, 2.0),
            default_parallelism: 6,
            workers: 2,
            ..EngineOptions::default()
        }
    }

    fn sum() -> ReduceFn {
        Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
    }

    fn sorted(mut records: Vec<Record>) -> Vec<Record> {
        records.sort_by(|a, b| {
            a.key
                .cmp(&b.key)
                .then_with(|| format!("{:?}", a.value).cmp(&format!("{:?}", b.value)))
        });
        records
    }

    fn word_records() -> Vec<Record> {
        (0..200)
            .map(|i| Record::new(Key::Int(i % 10), Value::Int(1)))
            .collect()
    }

    /// One fused op per letter: `m`ap, fla`x`-map, `f`ilter, `s`ample.
    fn fused_ops<'g>(
        spec: &str,
        map: &'g MapFn,
        flat: &'g FlatMapFn,
        filter: &'g FilterFn,
    ) -> Vec<OpState<'g>> {
        let op = |c| match c {
            'm' => FusedOp::Map(map),
            'x' => FusedOp::FlatMap(flat),
            'f' => FusedOp::Filter(filter),
            _ => FusedOp::Sample {
                fraction: 0.6,
                rng: numeric::XorShift64::new(17),
            },
        };
        let state = |c| OpState {
            op: op(c),
            inputs: 0,
        };
        spec.chars().map(state).collect()
    }

    #[test]
    fn chain_step_is_the_same_for_an_owned_and_a_shared_root() {
        let map: MapFn =
            Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() * 3)));
        let flat: FlatMapFn = Arc::new(|r: &Record| {
            (0..r.value.as_int() % 4)
                .map(|j| Record::new(Key::Int(j), r.value.clone()))
                .collect()
        });
        let filter: FilterFn = Arc::new(|r: &Record| r.value.as_int() % 2 == 0);
        let input: Vec<Record> = (0..300)
            .map(|i| Record::new(Key::Int(i % 11), Value::Int(i)))
            .collect();
        for spec in ["", "fs", "fms", "sxf", "msxs"] {
            let run = |owned: bool| {
                let mut ops = fused_ops(spec, &map, &flat, &filter);
                let mut out = Vec::new();
                for rec in &input {
                    if owned {
                        feed(&mut ops, rec.clone(), &mut out);
                    } else {
                        feed(&mut ops, rec, &mut out);
                    }
                }
                let inputs: Vec<u64> = ops.iter().map(|st| st.inputs).collect();
                (out, inputs)
            };
            let (owned, shared) = (run(true), run(false));
            assert_eq!(owned, shared, "chain {spec:?}");
            assert!(!owned.0.is_empty(), "chain {spec:?} keeps something");
        }
    }

    /// One task of `src → flat-map → filter`, written to a 5-way hash
    /// shuffle with a map-side combine: streamed into the combine, or
    /// collected first and handed to the writer.
    fn combining_task(
        graph: &RddGraph,
        chain: &[Rdd],
        data: &Arc<Vec<Record>>,
        index: usize,
        streamed: bool,
    ) -> (TaskOut, MapWrite) {
        let writer = ShuffleWriter {
            spec: PartitionerSpec::hash(5),
            combine: Some(sum()),
            combine_cost: 1e-6,
            seed: 9,
            batch: true,
        };
        let partitioner = build_partitioner(writer.spec, std::iter::empty(), writer.seed);
        let f = writer.combine.as_ref().expect("combining writer");
        let arena = &mut TaskArena::default();
        let task = TaskId { index, of: 3 };
        let input = StageInput::Slice(data);
        if streamed {
            let mut sink = CombineSink::new(Combiner::new(&*partitioner, f, arena));
            let out = compute_task(graph, &input, chain, task, None, None, Some(&mut sink));
            assert!(
                out.records.as_slice().is_empty(),
                "a streamed task holds nothing"
            );
            (out, writer.finish(sink))
        } else {
            let mut out = compute_task(graph, &input, chain, task, None, None, None);
            let records = std::mem::take(&mut out.records);
            (out, writer.write(records, &*partitioner, arena))
        }
    }

    #[test]
    fn a_streamed_combine_write_equals_the_collected_one_cached_tail_or_not() {
        let mut graph = RddGraph::new();
        let data: Vec<Record> = (0..240)
            .map(|i| Record::new(Key::Int(i % 17), Value::Int(i)))
            .collect();
        let src = graph.parallelize(data.clone(), 3, "src");
        let spread = graph.flat_map(
            src,
            Arc::new(|r: &Record| {
                (0..r.value.as_int() % 3)
                    .map(|j| Record::new(Key::Int(r.value.as_int() % 7 + j), r.value.clone()))
                    .collect()
            }),
            2e-6,
            "spread",
        );
        let kept = graph.filter(
            spread,
            Arc::new(|r: &Record| r.value.as_int() % 5 != 0),
            1e-6,
            "kept",
        );
        let (chain, data) = ([spread, kept], Arc::new(data));
        for index in 0..3 {
            graph.set_uncached(kept);
            let (collected, collected_write) = combining_task(&graph, &chain, &data, index, false);
            assert!(collected.out_records > 0, "task {index} keeps something");
            let task = TaskId { index, of: 3 };
            let chain_output = compute_task(
                &graph,
                &StageInput::Slice(&data),
                &chain,
                task,
                None,
                None,
                None,
            )
            .records;
            for (cached_tail, streamed) in [(false, true), (true, true), (true, false)] {
                if cached_tail {
                    graph.set_cached(kept);
                } else {
                    graph.set_uncached(kept);
                }
                let (out, write) = combining_task(&graph, &chain, &data, index, streamed);
                let case = format!("task {index} cached tail {cached_tail} streamed {streamed}");
                assert_eq!(out.out_records, collected.out_records, "{case}");
                assert_eq!(out.out_bytes, collected.out_bytes, "{case}");
                assert_eq!(out.input_records, collected.input_records, "{case}");
                assert_eq!(out.cost.to_bits(), collected.cost.to_bits(), "{case}");
                assert_eq!(
                    write.cost.to_bits(),
                    collected_write.cost.to_bits(),
                    "{case}"
                );
                assert_eq!(write.runs.offsets, collected_write.runs.offsets, "{case}");
                assert_eq!(write.runs.bytes, collected_write.runs.bytes, "{case}");
                match (&write.runs.runs, &collected_write.runs.runs) {
                    (Runs::Rows(a), Runs::Rows(b)) => assert_eq!(a, b, "{case}"),
                    _ => panic!("{case}: a combining write is a row write"),
                }
                if cached_tail {
                    // The capture is the chain's whole pre-combine output.
                    let [(rdd, part)] = out.captures.as_slice() else {
                        panic!("{case}: one capture")
                    };
                    assert_eq!(*rdd, kept, "{case}");
                    assert_eq!(part.as_slice(), chain_output.as_slice(), "{case}");
                } else {
                    assert!(out.captures.is_empty(), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_capture_moves_an_owned_output_and_shares_a_whole_partition() {
        let owned: Vec<Record> = word_records();
        let at = owned.as_ptr();
        let mut records = TaskRecords::Owned(owned);
        let part = capture(&mut records);
        assert_eq!(part.as_ptr(), at, "the vector moved into its Arc");
        assert!(
            matches!(&records, TaskRecords::Shared(data, 0, 200) if Arc::ptr_eq(data, &part)),
            "the task reads on from the captured partition"
        );
        // A window over a whole shared partition is that partition...
        let again = capture(&mut records);
        assert!(Arc::ptr_eq(&again, &part));
        // ...and only a partial window is copied.
        let mut window = TaskRecords::Shared(Arc::clone(&part), 50, 80);
        let copy = capture(&mut window);
        assert_eq!(copy.as_slice(), &part[50..80]);
        assert_eq!(window.as_slice(), &part[50..80]);
    }

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

    /// Two tenants capped to one lane each run inline on their own threads
    /// and both get participant 0 of the shared pool — the same arena
    /// slot. A task that kept that slot locked while its user closures run
    /// would make A, parked inside its map function, block B's shuffle
    /// write for good.
    #[test]
    fn tenants_of_a_shared_pool_do_not_wait_on_each_others_tasks() {
        use std::sync::mpsc;
        use std::time::Duration;
        let pool = Arc::new(WorkerPool::new(2));
        let tenant = || {
            let ctx = Context::new(EngineOptions {
                shared_pool: Some(Arc::clone(&pool)),
                ..test_options()
            });
            ctx.slot_cap_handle().store(1, Ordering::Relaxed);
            ctx
        };
        let (mut a, mut b) = (tenant(), tenant());
        let (a_parked, a_is_parked) = mpsc::channel::<()>();
        let (b_done, b_is_done) = mpsc::channel::<()>();
        // A's first record parks the task until B's job has finished.
        let gate = Mutex::new(Some((a_parked, b_is_done)));
        let src = a.parallelize(word_records(), 4, "src");
        let parked = a.map(
            src,
            Arc::new(move |r: &Record| {
                let first_call = lock(&gate).take();
                if let Some((a_parked, b_is_done)) = first_call {
                    a_parked.send(()).expect("the test is listening");
                    b_is_done
                        .recv_timeout(Duration::from_secs(60))
                        .expect("B finishes its combine job while A's task is parked");
                }
                r.clone()
            }),
            1e-6,
            "parked",
        );
        let a_counts = a.reduce_by_key(parked, sum(), None, 1e-6, "count");
        let src = b.parallelize(word_records(), 4, "src");
        let b_counts = b.reduce_by_key(src, sum(), None, 1e-6, "count");
        std::thread::scope(|s| {
            let a_job = s.spawn(|| a.collect(a_counts, "a").len());
            let b_job = s.spawn(move || {
                a_is_parked
                    .recv_timeout(Duration::from_secs(60))
                    .expect("A starts its map stage");
                let n = b.collect(b_counts, "b").len();
                b_done.send(()).expect("A is waiting");
                n
            });
            assert_eq!(b_job.join().expect("tenant B"), 10);
            assert_eq!(a_job.join().expect("tenant A"), 10);
        });
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
    fn metrics_record_two_stages_with_shuffle() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        ctx.collect(counts, "wordcount");
        let jobs = ctx.jobs();
        assert_eq!(jobs.len(), 1);
        let stages = &jobs[0].stages;
        assert_eq!(stages.len(), 2);
        assert!(
            stages[0].shuffle_write_bytes > 0,
            "map stage writes shuffle"
        );
        assert_eq!(stages[0].shuffle_read_bytes, 0);
        assert!(
            stages[1].shuffle_read_bytes > 0,
            "reduce stage reads shuffle"
        );
        assert_eq!(stages[1].num_tasks, 6, "default parallelism");
        assert_eq!(stages[1].parents, vec![stages[0].stage_id]);
        assert!(jobs[0].duration() > 0.0);
    }

    #[test]
    fn determinism_across_identical_contexts() {
        let run = || {
            let mut ctx = Context::new(test_options());
            let src = ctx.parallelize(word_records(), 4, "src");
            let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
            let out = ctx.collect(counts, "wc");
            let s = &ctx.jobs()[0].stages[0];
            (sorted(out), s.shuffle_write_bytes, ctx.clock().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_override_changes_task_count() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        let sig = ctx.signature(counts);
        let mut conf = WorkloadConf::new();
        conf.set_stage(sig, PartitionerSpec::hash(3));
        ctx.set_conf(conf);
        ctx.collect(counts, "wc");
        assert_eq!(ctx.jobs()[0].stages[1].num_tasks, 3);
    }

    #[test]
    fn range_partitioner_yields_same_results_as_hash() {
        let run = |spec: PartitionerSpec| {
            let mut ctx = Context::new(test_options());
            let src = ctx.parallelize(word_records(), 4, "src");
            let counts = ctx.reduce_by_key(src, sum(), Some(spec), 1e-6, "count");
            sorted(ctx.collect(counts, "wc"))
        };
        assert_eq!(
            run(PartitionerSpec::hash(5)),
            run(PartitionerSpec::range(5))
        );
    }

    #[test]
    fn caching_skips_recompute_in_later_jobs() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let mapped = ctx.map(src, Arc::new(|r: &Record| r.clone()), 5e-3, "prep");
        ctx.cache(mapped);
        // Job 1 materializes; job 2 reads the cache.
        let c1 = ctx.count(mapped, "materialize");
        let c2 = ctx.count(mapped, "reuse");
        assert_eq!(c1, c2);
        let jobs = ctx.jobs();
        assert_eq!(jobs[0].stages[0].kind, StageKind::Source);
        assert_eq!(jobs[1].stages[0].kind, StageKind::Cached);
        assert!(
            jobs[1].duration() < jobs[0].duration() / 2.0,
            "cached job should skip the expensive map: {} vs {}",
            jobs[1].duration(),
            jobs[0].duration()
        );
        assert_eq!(
            jobs[1].stages.len(),
            1,
            "cache read is a single trivial stage"
        );
    }

    #[test]
    fn join_end_to_end_correctness() {
        let mut ctx = Context::new(test_options());
        let left: Vec<Record> = (0..10)
            .map(|i| Record::new(Key::Int(i), Value::Int(i * 10)))
            .collect();
        let right: Vec<Record> = (5..15)
            .map(|i| Record::new(Key::Int(i), Value::Int(i * 100)))
            .collect();
        let l = ctx.parallelize(left, 2, "l");
        let r = ctx.parallelize(right, 2, "r");
        let j = ctx.join(l, r, None, 1e-6, "j");
        let out = ctx.collect(j, "join");
        assert_eq!(out.len(), 5, "keys 5..10 match");
        for rec in &out {
            match (&rec.key, &rec.value) {
                (Key::Int(k), Value::Pair(a, b)) => {
                    assert_eq!(a.as_int(), k * 10);
                    assert_eq!(b.as_int(), k * 100);
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
        // Join job = two map stages + join stage.
        assert_eq!(ctx.jobs()[0].stages.len(), 3);
        assert_eq!(ctx.jobs()[0].stages[2].kind, StageKind::Join);
    }

    #[test]
    fn text_file_source_uses_spark_split_rule() {
        let mut ctx = Context::new(test_options());
        // 3 blocks of 128 MB but default parallelism 6 → 6 splits.
        let gen: GenFn = Arc::new(|i, _n| vec![Record::new(Key::Int(i as i64), Value::Int(1))]);
        let f = ctx.text_file("in", 3 * 128 * 1024 * 1024, gen, 1e-6, "scan");
        ctx.count(f, "scan");
        assert_eq!(ctx.jobs()[0].stages[0].num_tasks, 6);
        // Reads hit the block store.
        assert!(ctx.store().counters().reads >= 3);
    }

    #[test]
    fn text_file_config_overrides_split_count() {
        let mut ctx = Context::new(test_options());
        let gen: GenFn = Arc::new(|i, _n| vec![Record::new(Key::Int(i as i64), Value::Int(1))]);
        let f = ctx.text_file("in", 256 * 1024 * 1024, gen, 1e-6, "scan");
        let mut conf = WorkloadConf::new();
        conf.set_stage(ctx.signature(f), PartitionerSpec::hash(9));
        ctx.set_conf(conf);
        ctx.count(f, "scan");
        assert_eq!(ctx.jobs()[0].stages[0].num_tasks, 9);
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
    fn copartition_scheduling_reduces_remote_join_traffic() {
        let build = |copart: bool| {
            let mut opts = test_options();
            opts.copartition_scheduling = copart;
            let mut ctx = Context::new(opts);
            // Side A is uniform; side B is skewed (key k appears 1+(k%13)
            // times with fat string payloads), so the two materialization
            // stages schedule their waves differently and partition homes
            // diverge unless co-partition anchoring aligns them.
            let data_a: Vec<Record> = (0..4000)
                .map(|i| Record::new(Key::Int(i % 100), Value::Int(i)))
                .collect();
            let mut data_b: Vec<Record> = Vec::new();
            for _rep in 0..10 {
                for k in 0..100i64 {
                    for j in 0..1 + (k % 13) {
                        data_b.push(Record::new(
                            Key::Int(k),
                            Value::str(&"x".repeat(64 + (j as usize) * 16)),
                        ));
                    }
                }
            }
            let a = ctx.parallelize(data_a, 4, "a");
            let b = ctx.parallelize(data_b, 4, "b");
            // 30 partitions on 12 cores → multi-wave scheduling.
            let scheme = Some(PartitionerSpec::hash(30));
            let ra = ctx.reduce_by_key(a, sum(), scheme, 1e-6, "ra");
            // group_by_key has no map-side combine, so side B's reduce
            // tasks do real per-record work whose duration varies with the
            // skewed key multiplicities — that is what desynchronizes its
            // placement from side A's without anchoring.
            let rb = ctx.group_by_key(b, scheme, 4e-3, "rb");
            ctx.cache(ra);
            ctx.cache(rb);
            ctx.count(ra, "mat-a");
            ctx.count(rb, "mat-b");
            let j = ctx.join(ra, rb, scheme, 1e-6, "join");
            ctx.count(j, "join");
            let join_job = ctx.jobs().last().unwrap().clone();
            let join_stage = join_job.stages.last().unwrap().clone();
            assert_eq!(join_stage.kind, StageKind::Join);
            join_stage.remote_read_bytes
        };
        let with = build(true);
        let without = build(false);
        assert!(
            with < without,
            "co-partitioning must cut remote bytes: with={with} without={without}"
        );
        assert_eq!(with, 0, "anchored partitions are fully local");
    }

    #[test]
    fn co_group_end_to_end_correctness() {
        let mut ctx = Context::new(test_options());
        let left: Vec<Record> = (0..6)
            .map(|i| Record::new(Key::Int(i % 3), Value::Int(i)))
            .collect();
        let right: Vec<Record> = (0..4)
            .map(|i| Record::new(Key::Int(i % 4), Value::Int(i * 100)))
            .collect();
        let l = ctx.parallelize(left, 2, "l");
        let r = ctx.parallelize(right, 2, "r");
        let cg = ctx.co_group(l, r, None, 1e-6, "cg");
        let out = ctx.collect(cg, "cogroup");
        // Keys 0,1,2 on the left; 0,1,2,3 on the right -> 4 groups.
        assert_eq!(out.len(), 4);
        for rec in &out {
            let (lhs, rhs) = match &rec.value {
                Value::Pair(a, b) => (a, b),
                other => panic!("expected pair of lists, got {other:?}"),
            };
            let (l_len, r_len) = match (&**lhs, &**rhs) {
                (Value::List(a), Value::List(b)) => (a.len(), b.len()),
                other => panic!("expected lists, got {other:?}"),
            };
            match rec.key {
                Key::Int(k) if k < 3 => {
                    assert_eq!(l_len, 2, "each left key appears twice");
                    assert_eq!(r_len, 1);
                }
                Key::Int(3) => {
                    assert_eq!(l_len, 0, "key 3 only exists on the right");
                    assert_eq!(r_len, 1);
                }
                ref other => panic!("unexpected key {other:?}"),
            }
        }
    }

    #[test]
    fn range_partitioner_alleviates_hot_key_neighbourhood_skew() {
        // The paper's claim: the right partitioner "implicitly alleviates
        // task skew". Keys concentrated in a narrow range crush a few hash
        // buckets' worth of reduce tasks when P >> distinct keys; sampled
        // range bounds spread the dense region across partitions.
        let run = |spec: PartitionerSpec| {
            let mut ctx = Context::new(test_options());
            // 90% of records in keys 0..20, the rest spread to 10_000.
            let data: Vec<Record> = (0..20_000)
                .map(|i| {
                    let k = if i % 10 < 9 { i % 20 } else { i % 10_000 };
                    Record::new(Key::Int(k), Value::Int(1))
                })
                .collect();
            let src = ctx.parallelize(data, 4, "src");
            let g = ctx.group_by_key(src, Some(spec), 5e-5, "group");
            ctx.count(g, "group");
            ctx.jobs()
                .last()
                .unwrap()
                .stages
                .last()
                .unwrap()
                .task_skew()
        };
        let hash_skew = run(PartitionerSpec::hash(12));
        let range_skew = run(PartitionerSpec::range(12));
        assert!(
            range_skew < hash_skew,
            "range bounds should spread the dense key region: range {range_skew:.2} vs hash {hash_skew:.2}"
        );
    }

    #[test]
    fn placements_align_with_durations() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        ctx.count(src, "job");
        let stage = ctx.jobs()[0].stages[0].clone();
        assert_eq!(stage.placements.len(), stage.task_durations.len());
        for (p, d) in stage.placements.iter().zip(&stage.task_durations) {
            assert!((p.duration() - d).abs() < 1e-12);
            assert!(p.node < ctx.options().cluster.num_nodes());
        }
    }

    #[test]
    fn sample_op_is_deterministic_and_proportional() {
        let run = || {
            let mut ctx = Context::new(test_options());
            let src = ctx.parallelize(word_records(), 4, "src");
            let s = ctx.sample(src, 0.5, 42, "sample");
            ctx.count(s, "sample")
        };
        let a = run();
        assert_eq!(a, run(), "sampling must be deterministic");
        assert!(a > 50 && a < 150, "~50% of 200 records, got {a}");
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let g = ctx.group_by_key(src, None, 1e-6, "group");
        let out = ctx.collect(g, "group");
        assert_eq!(out.len(), 10);
        for r in &out {
            match &r.value {
                Value::List(vs) => assert_eq!(vs.len(), 20),
                other => panic!("expected list, got {other:?}"),
            }
        }
    }

    #[test]
    fn flat_map_and_filter_compose() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let fm = ctx.flat_map(
            src,
            Arc::new(|r: &Record| vec![r.clone(), r.clone()]),
            1e-6,
            "dup",
        );
        let f = ctx.filter(
            fm,
            Arc::new(|r: &Record| matches!(r.key, Key::Int(k) if k < 5)),
            1e-6,
            "keep-low",
        );
        assert_eq!(
            ctx.count(f, "q"),
            200,
            "200*2 records, half pass the filter"
        );
    }

    #[test]
    fn virtual_clock_monotone_across_jobs() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        ctx.count(src, "j1");
        let t1 = ctx.clock();
        ctx.count(src, "j2");
        assert!(ctx.clock() > t1);
    }

    /// A context degraded by the plan `text` describes (none if empty).
    fn planned(text: &str) -> Context {
        let plan = FaultPlan::from_text(text).expect("well-formed plan");
        Context::new(EngineOptions {
            faults: (!text.is_empty()).then_some(plan),
            ..test_options()
        })
    }

    #[test]
    fn plan_speculation_mitigates_a_degraded_node() {
        let run = |plan: &str| {
            let mut ctx = planned(plan);
            let data: Vec<Record> = (0..20_000)
                .map(|i| Record::new(Key::Int(i % 10), Value::Int(1)))
                .collect();
            let src = ctx.parallelize(data, 12, "src");
            let m = ctx.map(src, Arc::new(|r: &Record| r.clone()), 2e-3, "work");
            ctx.count(m, "job");
            ctx.jobs().last().unwrap().duration()
        };
        let plain = run("slow-node 0 10 0\n");
        let speculated = run("slow-node 0 10 0\nspeculation 1.5\n");
        assert!(
            speculated < plain,
            "backups on healthy nodes must beat waiting: {speculated} vs {plain}"
        );
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
    fn failed_node_is_avoided_and_results_stay_correct() {
        // Enough work per task that cluster capacity (not dispatch) binds:
        // 24 tasks of ~0.8 s on 12 cores (2 waves) vs 8 cores (3 waves).
        let run = |plan: &str| {
            let mut ctx = planned(plan);
            let data: Vec<Record> = (0..20_000)
                .map(|i| Record::new(Key::Int(i % 10), Value::Int(1)))
                .collect();
            let src = ctx.parallelize(data, 24, "src");
            let m = ctx.map(src, Arc::new(|r: &Record| r.clone()), 2e-3, "work");
            let counts = ctx.reduce_by_key(m, sum(), None, 1e-6, "count");
            let out = sorted(ctx.collect(counts, "job"));
            let placed_on_0 = ctx
                .all_stages()
                .iter()
                .flat_map(|m| &m.placements)
                .filter(|t| t.node == 0)
                .count();
            (out, ctx.jobs().last().unwrap().duration(), placed_on_0)
        };
        let (healthy, t_healthy, on_0) = run("");
        assert!(on_0 > 0, "a healthy cluster uses node 0");
        let (degraded, t_degraded, on_0) = run("lose-node 0 0\n");
        assert_eq!(healthy, degraded, "results unaffected by the failure");
        assert_eq!(on_0, 0, "no task is placed on the lost node");
        assert!(
            t_degraded > t_healthy * 1.2,
            "losing a third of the cluster must slow the job: {t_degraded} !> {t_healthy}"
        );
    }

    #[test]
    fn slowdown_injection_stretches_stage_times() {
        let run = |plan: &str| {
            let mut ctx = planned(plan);
            let src = ctx.parallelize(word_records(), 4, "src");
            let m = ctx.map(src, Arc::new(|r: &Record| r.clone()), 5e-3, "work");
            ctx.count(m, "job");
            ctx.jobs().last().unwrap().duration()
        };
        assert!(
            run("slow-node 1 8 0\n") > run(""),
            "a straggler node must show up in the makespan"
        );
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
    fn pinned_cache_survives_unrelated_jobs_under_governance() {
        let mut opts = test_options();
        opts.executor_mem = Some(1 << 20);
        let mut ctx = Context::new(opts);
        let src = ctx.parallelize(word_records(), 4, "src");
        let doubled = ctx.map(
            src,
            Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() * 2))),
            1e-7,
            "doubled",
        );
        ctx.cache(doubled);
        ctx.count(doubled, "materialize");
        // Jobs that never read `doubled`: its lineage ref-count is zero
        // throughout, but the driver's pin must keep it materialized.
        let other = ctx.parallelize(word_records(), 4, "other");
        ctx.count(other, "unrelated");
        assert_eq!(ctx.mem_counters().released, 0, "only `uncache` releases");
        let counts = ctx.reduce_by_key(doubled, sum(), None, 1e-6, "count");
        let out = ctx.collect(counts, "reuse");
        assert_eq!(out.len(), 10);
        let reuse = ctx.jobs().last().expect("three jobs ran");
        assert_eq!(
            reuse.stages[0].kind,
            StageKind::Cached,
            "cache hit, not rebuild"
        );
    }

    #[test]
    fn uncache_frees_the_entry_and_recomputes_on_reuse() {
        let mut opts = test_options();
        opts.executor_mem = Some(1 << 20);
        let mut ctx = Context::new(opts);
        let src = ctx.parallelize(word_records(), 4, "src");
        let doubled = ctx.map(
            src,
            Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() * 2))),
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

    /// Runs cache + shuffle jobs under the given options and returns the
    /// collected results plus the full job-metrics debug rendering.
    fn fault_probe(opts: EngineOptions) -> (Vec<Record>, Vec<Record>, String, Context) {
        let mut ctx = Context::new(opts);
        let data: Vec<Record> = (0..20_000)
            .map(|i| Record::new(Key::Int(i % 10), Value::Int(1)))
            .collect();
        let src = ctx.parallelize(data, 12, "src");
        let slow = ctx.map(src, Arc::new(|r: &Record| r.clone()), 2e-4, "slow");
        ctx.cache(slow);
        ctx.count(slow, "materialize");
        let counts = ctx.reduce_by_key(slow, sum(), None, 1e-6, "count");
        let first = sorted(ctx.collect(counts, "first"));
        // Reuse the cache after any injected loss to exercise re-homing.
        let counts2 = ctx.reduce_by_key(slow, sum(), None, 1e-6, "again");
        let second = sorted(ctx.collect(counts2, "second"));
        let jobs = format!("{:?}", ctx.jobs());
        (first, second, jobs, ctx)
    }

    #[test]
    fn inert_fault_plan_is_bit_identical_to_no_plan() {
        let (base_a, base_b, base_jobs, base_ctx) = fault_probe(test_options());
        let mut opts = test_options();
        opts.faults = Some(FaultPlan::default());
        let (a, b, jobs, ctx) = fault_probe(opts);
        assert_eq!(base_a, a);
        assert_eq!(base_b, b);
        assert_eq!(base_jobs, jobs, "an all-zero plan must not perturb metrics");
        assert_eq!(ctx.fault_counters(), FaultCounters::default());
        assert_eq!(base_ctx.fault_counters(), FaultCounters::default());
    }

    #[test]
    fn task_retries_slow_the_job_but_preserve_results() {
        let (base_a, base_b, _, base_ctx) = fault_probe(test_options());
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            task_fail_prob: 0.3,
            ..FaultPlan::default()
        });
        let (a, b, _, ctx) = fault_probe(opts);
        assert_eq!(base_a, a, "retries must not change results");
        assert_eq!(base_b, b);
        let counters = ctx.fault_counters();
        assert!(counters.retried_tasks > 0, "30% failure rate must retry");
        assert!(counters.injected_failures >= counters.retried_tasks);
        let base_t: f64 = base_ctx.jobs().iter().map(|j| j.duration()).sum();
        let t: f64 = ctx.jobs().iter().map(|j| j.duration()).sum();
        assert!(
            t > base_t,
            "re-run attempts cost virtual time: {t} !> {base_t}"
        );
    }

    #[test]
    fn shuffle_corruption_is_refetched_not_propagated() {
        let (base_a, base_b, _, _) = fault_probe(test_options());
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            corrupt_prob: 0.4,
            ..FaultPlan::default()
        });
        let (a, b, _, ctx) = fault_probe(opts);
        assert_eq!(base_a, a);
        assert_eq!(base_b, b);
        let counters = ctx.fault_counters();
        assert!(counters.corrupt_chunks > 0, "40% corruption must trigger");
        assert!(counters.refetched_bytes > 0);
    }

    #[test]
    fn node_loss_recovers_cached_and_shuffle_data() {
        // Time the loss into the middle of the first shuffle job's map
        // stage (fault-free timings are deterministic): it is then applied
        // at the reduce-stage boundary, after map outputs and the cached
        // RDD landed on the doomed node.
        let (base_a, base_b, _, base_ctx) = fault_probe(test_options());
        let map_stage = &base_ctx.jobs()[1].stages[0];
        let at = 0.5 * (map_stage.start + map_stage.end);
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            node_loss: vec![NodeLoss { node: 0, at }],
            ..FaultPlan::default()
        });
        let (a, b, _, ctx) = fault_probe(opts);
        assert_eq!(base_a, a, "recovery must reproduce the shuffle results");
        assert_eq!(base_b, b, "re-homed cache must serve identical data");
        let counters = ctx.fault_counters();
        assert_eq!(counters.nodes_lost, 1);
        assert!(
            counters.recomputed_map_tasks > 0,
            "some map outputs lived on node 0 and must be recomputed: {counters:?}"
        );
        assert!(
            counters.replica_rehomed_partitions > 0,
            "some cached partitions lived on node 0 and must re-home: {counters:?}"
        );
        let base_t = base_ctx.jobs()[1].duration();
        let t = ctx.jobs()[1].duration();
        assert!(
            t > base_t,
            "recompute plus a shrunk cluster costs time: {t} !> {base_t}"
        );
    }

    /// Caches six partitions over three nodes, then reads the cache back
    /// through a narrow job. Returns the sorted read, the virtual time
    /// between the two jobs, and the cached RDD.
    fn cache_probe(
        faults: Option<FaultPlan>,
        executor_mem: Option<u64>,
    ) -> (Vec<Record>, f64, Rdd, Context) {
        let mut ctx = Context::new(EngineOptions {
            faults,
            executor_mem,
            ..test_options()
        });
        let data: Vec<Record> = (0..6_000)
            .map(|i| Record::new(Key::Int(i), Value::Int(i)))
            .collect();
        let src = ctx.parallelize(data, 6, "src");
        let kept = ctx.map(src, Arc::new(|r: &Record| r.clone()), 1e-4, "kept");
        ctx.cache(kept);
        ctx.count(kept, "materialize");
        let between = ctx.clock();
        let read = sorted(ctx.collect(kept, "read"));
        (read, between, kept, ctx)
    }

    fn lose_node_0_at(at: f64) -> Option<FaultPlan> {
        Some(FaultPlan {
            node_loss: vec![NodeLoss { node: 0, at }],
            ..FaultPlan::default()
        })
    }

    #[test]
    fn rehoming_a_cached_partition_pays_the_network_copy() {
        // Lose node 0 between the jobs: every read task finds its
        // (re-homed) partition's node free, so the only bytes that cross
        // the network are the replica copies themselves.
        let (base, loss_at, _, base_ctx) = cache_probe(None, None);
        let (got, _, _, ctx) = cache_probe(lose_node_0_at(loss_at), None);
        assert_eq!(base, got, "the re-homed cache must serve identical data");
        let counters = ctx.fault_counters();
        assert!(counters.replica_rehomed_partitions > 0, "{counters:?}");
        assert_eq!(
            ctx.sim().io_stats().remote_bytes,
            base_ctx.sim().io_stats().remote_bytes + counters.replica_read_bytes,
            "a flat fabric carries replica copies like any other"
        );
        assert!(ctx.clock() > base_ctx.clock());
    }

    #[test]
    fn rehoming_goes_through_the_memory_budget() {
        let (base, loss_at, _, base_ctx) = cache_probe(None, None);
        let on_survivors = |ctx: &Context, kept: Rdd| {
            (0..6).all(|i| {
                let blocks = ctx.store().file_blocks(&spill_name(kept, i));
                blocks.is_some_and(|b| b.iter().all(|b| b.replicas != [0]))
            })
        };
        // Each node caches two partitions and a task's working set is two
        // partitions' worth: 4.5 partitions per node hold that with room
        // to spare, but not the third partition a survivor inherits.
        let roomy = base_ctx.sim().resident_bytes()[0] * 9 / 4;
        let (got, _, _, free) = cache_probe(None, Some(roomy));
        assert_eq!(base, got);
        assert_eq!(free.mem_counters().spills, 0, "fits while node 0 lives");
        let (got, _, kept, ctx) = cache_probe(lose_node_0_at(loss_at), Some(roomy));
        assert_eq!(base, got, "the spilled cache must serve identical data");
        let mc = ctx.mem_counters();
        assert_eq!((mc.evictions, mc.spills), (1, 1), "a survivor overflowed");
        assert_eq!(mc.rereads, 1, "the read job found it on disk");
        assert_eq!(ctx.sim().resident_bytes(), &[0, 0, 0]);
        assert!(on_survivors(&ctx, kept), "spill files follow the new homes");

        // A budget the cache never fit: spilled at capture, and the lost
        // node's partitions land spilled on their new homes.
        let (got, _, kept, ctx) = cache_probe(lose_node_0_at(loss_at), Some(roomy / 4));
        assert_eq!(base, got);
        let mc = ctx.mem_counters();
        assert_eq!((mc.evictions, mc.spills), (0, 1), "spilled on arrival");
        assert!(ctx.fault_counters().replica_rehomed_partitions > 0);
        assert!(on_survivors(&ctx, kept), "spill files were re-created");
    }

    #[test]
    fn stragglers_and_plan_speculation_preserve_results() {
        let (base_a, base_b, _, _) = fault_probe(test_options());
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            stragglers: vec![Straggler {
                node: 1,
                factor: 4.0,
                at: 0.0,
            }],
            speculation: Some(1.5),
            ..FaultPlan::default()
        });
        let (a, b, _, ctx) = fault_probe(opts);
        assert_eq!(base_a, a);
        assert_eq!(base_b, b);
        assert_eq!(ctx.fault_counters().stragglers_applied, 1);
    }

    #[test]
    fn a_plan_naming_a_node_the_cluster_lacks_is_rejected() {
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            node_loss: vec![NodeLoss { node: 9, at: 1.0 }],
            ..FaultPlan::default()
        });
        assert!(opts.validate().is_err(), "out-of-range node must fail");
    }

    #[test]
    fn undersized_topology_grid_is_rejected() {
        // `with_topology` asserts the grid covers the cluster; a struct
        // literal or a deserialized spec gets here without that check.
        let mut opts = test_options();
        opts.cluster.topology = simcluster::Topology::Rack {
            racks: 1,
            hosts: 2,
            oversub: 1.0,
        };
        let err = opts.validate().unwrap_err();
        assert!(
            err.contains("rack:1x2:1") && err.contains("3 nodes"),
            "got: {err}"
        );
        opts.cluster.topology = simcluster::Topology::Rack {
            racks: 2,
            hosts: 2,
            oversub: 1.0,
        };
        assert_eq!(opts.validate(), Ok(()));
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
