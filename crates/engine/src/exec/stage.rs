//! Stage execution and accounting: one plan stage from resolved inputs to
//! stage metrics, in phases. The data moves in [`super::dataplane`]; what
//! this module adds is everything the virtual cluster is charged for it.
//!
//! A shuffle's map output is kept as [`ShuffleData`]: each map task's
//! records in one allocation, and one column-major index of the runs that
//! exist — reduce partition `c`'s runs, in map-task order, are one
//! contiguous slice. The index is built once, when the map stage stores
//! its output, in time proportional to the runs plus P; every later
//! question about a reduce partition (what it fetches and from where, how
//! many bytes it holds, its records) reads that slice and never walks the
//! map tasks that wrote nothing for it.

use super::books::FAULTS;
use super::context::{Context, Lane, STAGES};
use super::dataplane::{
    compute_task, CountSink, Folded, JoinSide, MapWrite, MergeKind, ShuffleWriter, Sink,
    StageInput, TaskId, TaskOut,
};
use crate::metrics::{StageKind, StageMetrics};
use crate::ops::OpKind;
use crate::partitioner::{build_partitioner, PartitionerSpec};
use crate::pool::lock;
use crate::rdd::Rdd;
use crate::record::{Key, Record};
use crate::stage::{Plan, PlanStage, SideDep, StageOutput, StageRoot};
use simcluster::{NodeId, TaskSpec};
use std::sync::{Arc, Mutex};
use trace::{pids, Clock, Track};

/// One run of the shuffle's column-major index: map task `map`'s records
/// `start..end` for the reduce partition whose column lists it.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct ColumnRun {
    pub(super) map: u32,
    pub(super) start: u32,
    pub(super) end: u32,
    /// Serialized size of the run; never 0.
    pub(super) bytes: u64,
}

/// One shuffle's map output, from the map stage that wrote it until the
/// last stage that reads it.
pub(super) struct ShuffleData {
    /// `rows[map_task]` — that task's whole output in reduce-partition
    /// order. One lock per map task: a reduce task merges its partition's
    /// run out of the row in place (see [`ShuffleData::with_run`]) and
    /// holds the lock only for that. Emptied after the last read.
    pub(super) rows: Vec<Mutex<Vec<Record>>>,
    /// `P + 1` column starts: reduce partition `c`'s runs are
    /// `runs[col_start[c]..col_start[c + 1]]`.
    col_start: Vec<usize>,
    /// Every non-empty run, column by column, in map-task order within a
    /// column.
    runs: Vec<ColumnRun>,
    nodes: Vec<NodeId>,
    pub(super) producer_gid: usize,
    /// The producer stage's task specs, retained only while a fault plan
    /// is active so that map outputs lost to a node failure can be
    /// recomputed through lineage (empty otherwise).
    specs: Vec<TaskSpec>,
    /// More than one read in the plan (a self-join, or two stages over one
    /// uncached wide RDD): reads clone the records instead of moving them.
    pub(super) shared: bool,
    /// Reads of this shuffle that have not run yet.
    reads_left: usize,
}

impl Context {
    /// Runs plan stage `plan_idx`, in phases: resolve inputs → run tasks →
    /// build specs → fault injection, simulation and memory reservation →
    /// persist captures and shuffle output → metrics → trace. Every job
    /// takes this one path; options only change what the accounting
    /// phases charge, never which code moves the data.
    pub(super) fn exec_stage(
        &mut self,
        plan: &Plan,
        plan_idx: usize,
        gid: usize,
        job_id: usize,
        count_only: bool,
        shuffles: &mut [Option<ShuffleData>],
    ) -> (StageMetrics, Option<Vec<TaskOut>>) {
        let stage = &plan.stages[plan_idx];
        let cx = StageCtx {
            plan,
            plan_idx,
            gid,
            job_id,
            count_only,
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

        let (input, mut reads) = self.resolve_inputs(&cx, shuffles);
        let wall_start = self.options.trace.wall_now();
        let (outs, writes) = self.run_tasks(&cx, &input);
        let wall = (wall_start, self.options.trace.wall_now());
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

        let mut specs = self.build_specs(&cx, &reads, &outs, writes.as_deref());
        // Corrupt-chunk injection appends re-fetch entries to the specs'
        // fetch lists, and the metrics byte tables must stay
        // fault-invariant: remember where each list ended before it.
        let clean_fetches: Option<Vec<usize>> = self
            .faults
            .as_ref()
            .filter(|f| f.plan.corrupt_prob > 0.0)
            .map(|_| specs.iter().map(|s| s.fetches.len()).collect());
        let timing = self.charge_stage(&cx, &mut specs);
        let homes: Vec<NodeId> = timing.tasks.iter().map(|t| t.node).collect();
        self.capture(plan, stage, gid, &outs, &homes);

        reads.parents_gids.sort_unstable();
        reads.parents_gids.dedup();
        let fetches = specs.iter().enumerate().map(|(j, spec)| {
            let clean = clean_fetches.as_ref().map_or(spec.fetches.len(), |n| n[j]);
            &spec.fetches[..clean]
        });
        let mut metrics = self.stage_metrics(
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
                let reads_left = plan.shuffle_reads(sidx);
                let (rows, col_start, runs) =
                    index_runs(writes, plan.shuffles[sidx].scheme.partitions);
                let data = shuffles[sidx].insert(ShuffleData {
                    rows,
                    col_start,
                    runs,
                    nodes: homes,
                    producer_gid: gid,
                    // Retained only under a fault plan.
                    specs: if self.faults.is_some() {
                        specs
                    } else {
                        Vec::new()
                    },
                    shared: reads_left > 1,
                    reads_left,
                });
                metrics.write_bucket_skew =
                    trace::skew_ratio(data.column_bytes().map(|b| b as f64));
            }
            (StageOutput::Result, _) => result_outs = Some(outs),
            (StageOutput::ShuffleWrite(_), None) => {
                unreachable!("shuffle-write tasks return their runs")
            }
        }
        self.trace_stage(&cx, &metrics, &timing, wall);
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
                let (parts, producer) = self.ledger.cached(*rdd);
                reads.parents_gids.push(producer);
                reads.cached_reads.push(*rdd);
                reads.tasks = (0..num_tasks)
                    .map(|i| self.ledger.scan_of(*rdd, i))
                    .collect();
                StageInput::Cached(parts)
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
                reads.tasks = (0..num_tasks).map(|i| data.read_of(i)).collect();
                StageInput::Shuffle { data, merge }
            }
            StageRoot::JoinRead { wide, left, right } => {
                let read = |dep: &SideDep, i| match dep {
                    SideDep::Shuffle(s) => produced(*s).read_of(i),
                    SideDep::Narrow(rdd) => self.ledger.read_of(*rdd, i),
                };
                reads.tasks = (0..num_tasks)
                    .map(|i| {
                        let (mut t, r) = (read(left, i), read(right, i));
                        t.fetches.extend(r.fetches);
                        t.fetches = aggregate_fetches(std::mem::take(&mut t.fetches));
                        t.fetch_chunks += r.fetch_chunks;
                        t.local_read_bytes += r.local_read_bytes;
                        t
                    })
                    .collect();
                let mut side = |dep: &SideDep| match dep {
                    SideDep::Shuffle(s) => {
                        reads.parents_gids.push(produced(*s).producer_gid);
                        JoinSide::Shuffle(produced(*s))
                    }
                    SideDep::Narrow(rdd) => {
                        let (parts, producer) = self.ledger.cached(*rdd);
                        reads.parents_gids.push(producer);
                        reads.cached_reads.push(*rdd);
                        JoinSide::Narrow(parts)
                    }
                };
                StageInput::Join {
                    left: side(left),
                    right: side(right),
                    outer: matches!(self.graph.node(*wide).op, OpKind::CoGroup { .. }),
                    cost: wide_cost(*wide),
                }
            }
        };
        (input, reads)
    }

    fn source_input(&self, rdd: Rdd, num_tasks: usize, reads: &mut StageReads) -> StageInput<'_> {
        match &self.graph.node(rdd).op {
            OpKind::SourceCollection { data, .. } => {
                reads.tasks.resize_with(num_tasks, TaskSpec::default);
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
                        let preferred_nodes = if blocks.is_empty() {
                            Vec::new()
                        } else if any_down {
                            self.store
                                .select_replica(file, bi, down)
                                .into_iter()
                                .collect()
                        } else {
                            blocks[bi].replicas.clone()
                        };
                        TaskSpec {
                            local_read_bytes: per_task,
                            preferred_nodes,
                            ..TaskSpec::default()
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

    // ------------------------------------------------------------------
    // Phase 2: run tasks
    // ------------------------------------------------------------------

    /// Runs the stage's tasks on the pool. A result task returns its
    /// output, or — under a counting action — streams it into a count and
    /// holds none of it. A shuffle-writing task streams its narrow chain
    /// into its write sink — counted, sampled under a range scheme, folded
    /// when the consumer is a `reduce_by_key` — and lays the survivors out
    /// by partition: a hash write inside the task's pool item, a range
    /// write once every task's sample is in and its bounds are built.
    /// Returns per-task outputs and, for shuffle writes, per-task runs.
    fn run_tasks(
        &self,
        cx: &StageCtx<'_>,
        input: &StageInput<'_>,
    ) -> (Vec<TaskOut>, Option<Vec<MapWrite>>) {
        let (stage, num_tasks) = (cx.stage(), cx.num_tasks);
        let root_rdd = stage.root_rdd();
        let capture_root =
            (self.graph.node(root_rdd).cached && !self.ledger.holds(root_rdd)).then_some(root_rdd);
        let task = |index| TaskId {
            index,
            of: num_tasks,
        };
        let compute = |task: TaskId, sink: Sink<'_>| {
            compute_task(&self.graph, input, &stage.chain, task, capture_root, sink)
        };
        let (pool, cap) = (&*self.pool, self.lane_cap());
        let StageOutput::ShuffleWrite(sidx) = stage.output else {
            let sink = || {
                if cx.count_only {
                    Sink::Count(CountSink::default())
                } else {
                    Sink::Collect
                }
            };
            return (
                pool.map_capped(num_tasks, cap, |i, _| compute(task(i), sink())),
                None,
            );
        };
        let shuffle = &cx.plan.shuffles[sidx];
        let wide = self.graph.node(shuffle.for_wide);
        let writer = ShuffleWriter {
            spec: shuffle.scheme,
            combine: match &wide.op {
                OpKind::ReduceByKey { f, .. } if shuffle.combine => Some(Arc::clone(f)),
                _ => None,
            },
            combine_cost: wide.cost_per_record,
            seed: (cx.job_id as u64) << 32 | (cx.plan_idx as u64) << 8 | 0xC0,
        };
        let fold = |i: usize, arena: &mut _| writer.fold(task(i), arena, compute);
        if !writer.is_range() {
            let partitioner = build_partitioner(writer.spec, std::iter::empty(), writer.seed);
            let (outs, writes) = pool
                .map_capped(num_tasks, cap, |i, p| {
                    pool.with_arena(p, |arena| {
                        let (out, folded) = fold(i, arena);
                        (out, writer.write(folded, &*partitioner, arena))
                    })
                })
                .into_iter()
                .unzip();
            return (outs, Some(writes));
        }
        let (outs, folded): (Vec<TaskOut>, Vec<Folded>) = pool
            .map_capped(num_tasks, cap, |i, p| {
                pool.with_arena(p, |arena| fold(i, arena))
            })
            .into_iter()
            .unzip();
        // Bounds come from the per-task samples concatenated in task order,
        // so they are independent of worker scheduling.
        let keys: Vec<Key> = folded
            .iter()
            .flat_map(|f| f.sample.iter().cloned())
            .collect();
        let partitioner = build_partitioner(writer.spec, keys.iter(), writer.seed);
        // Each task's survivors move to the pool item that lays them out.
        let folded: Vec<Mutex<Folded>> = folded.into_iter().map(Mutex::new).collect();
        let writes = pool.map_capped(num_tasks, cap, |i, p| {
            let folded = std::mem::take(&mut *lock(&folded[i]));
            pool.with_arena(p, |arena| writer.write(folded, &*partitioner, arena))
        });
        (outs, Some(writes))
    }

    // ------------------------------------------------------------------
    // Phase 3: task specs
    // ------------------------------------------------------------------

    /// Turns what the tasks read, computed and wrote into simulator task
    /// specs, one per task.
    fn build_specs(
        &mut self,
        cx: &StageCtx<'_>,
        reads: &StageReads,
        outs: &[TaskOut],
        writes: Option<&[MapWrite]>,
    ) -> Vec<TaskSpec> {
        let task_mem_budget = self.options.per_task_mem_budget();
        let mut specs: Vec<TaskSpec> = Vec::with_capacity(outs.len());
        for (i, (task, out)) in reads.tasks.iter().zip(outs).enumerate() {
            let (mut write_bytes, extra_cost) =
                writes.map_or((0, 0.0), |w| (w[i].runs.total_bytes(), w[i].cost));
            let mut local_read_bytes = task.local_read_bytes;
            // Map-side combine overflow: a shuffle buffer larger than the
            // task's execution-memory share spills the overflow to disk
            // and re-reads it during the merge.
            if let Some(budget) = task_mem_budget {
                let overflow = crate::shuffle::spill_overflow(write_bytes, budget);
                if overflow > 0 {
                    self.ledger.note_shuffle_spill(overflow);
                    write_bytes += overflow;
                    local_read_bytes += overflow;
                }
            }
            let mut preferred = task.preferred_nodes.clone();
            let mut pinned = None;
            if self.options.copartition_scheduling {
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
            specs.push(TaskSpec {
                compute_cost: out.cost + extra_cost,
                local_read_bytes,
                fetches: task.fetches.clone(),
                fetch_chunks: task.fetch_chunks,
                write_bytes,
                memory_bytes: out.input_bytes + out.out_bytes,
                preferred_nodes: preferred,
                pinned_node: pinned,
            });
        }
        specs
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
    ) -> simcluster::StageTiming {
        let (gid, job_id) = (cx.gid, cx.job_id);
        let stage_faults = self.inject_task_faults(specs, gid);
        let timing = self.sim.run_stage(specs);
        if let Some((retried, failures, corrupt)) = stage_faults {
            self.emit(FAULTS, "retry", || {
                (
                    format!("j{job_id}.s{gid} retries"),
                    vec![
                        ("stage", (gid as u64).into()),
                        ("retried_tasks", retried.into()),
                        ("injected_failures", failures.into()),
                        ("corrupt_chunks", corrupt.into()),
                    ],
                )
            });
        }
        // Anchor co-partitioned indices for subsequent same-scheme stages.
        if self.options.copartition_scheduling {
            if let Some(s) = cx.root_scheme {
                for (i, t) in timing.tasks.iter().enumerate() {
                    self.anchors
                        .entry((s.kind, s.partitions, i))
                        .or_insert(t.node);
                }
            }
        }
        self.reserve_execution(specs, &timing);
        timing
    }

    // ------------------------------------------------------------------
    // Phase 5: metrics and trace
    // ------------------------------------------------------------------

    /// Stage metrics. `fetches` are the pre-injection spec fetch tables,
    /// one per task: the tasks' own reads (specs clone them verbatim).
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
            num_tasks: timing.tasks.len(),
            input_records: outs.iter().map(|o| o.input_records).sum(),
            input_bytes: outs.iter().map(|o| o.input_bytes).sum(),
            output_records: outs.iter().map(|o| o.out_records).sum(),
            output_bytes: outs.iter().map(|o| o.out_bytes).sum(),
            shuffle_read_bytes,
            shuffle_write_bytes: writes.map_or(0, |w| w.iter().map(|w| w.runs.total_bytes()).sum()),
            remote_read_bytes,
            // Set once the stage's shuffle output is indexed.
            write_bucket_skew: 1.0,
            start: timing.start,
            end: timing.end,
            task_durations: timing.tasks.iter().map(|t| t.duration()).collect(),
            placements: timing.tasks.clone(),
            parents,
        }
    }

    /// Purely observational: reads `timing` / `metrics` after the
    /// simulation advanced, so traced and untraced runs produce
    /// bit-identical stage timings. Virtual-clock events are emitted on
    /// the driver thread in stage order, which keeps the virtual trace
    /// slice deterministic across host worker counts; the one wall span
    /// covers the stage's task phase on the host pool. Nothing is built
    /// with tracing off.
    fn trace_stage(
        &self,
        cx: &StageCtx<'_>,
        metrics: &StageMetrics,
        timing: &simcluster::StageTiming,
        wall: (f64, f64),
    ) {
        let (Some(stages), Some(shuf), Some(pipeline)) = (
            self.lane(STAGES),
            self.lane(SHUFFLE_BYTES),
            self.lane(PIPELINE),
        ) else {
            return;
        };
        let sink = &self.options.trace;
        let (gid, job_id) = (cx.gid, cx.job_id);
        sink.span(
            Clock::Virtual,
            stages,
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
        sink.span(
            Clock::Wall,
            pipeline,
            format!("pipeline j{job_id}.p{} {}", cx.plan_idx, metrics.name),
            "pipeline",
            wall.0,
            wall.1,
            vec![("tasks", cx.num_tasks.into())],
        );
    }
}

/// Shuffle read / remote read / shuffle write counters per stage.
const SHUFFLE_BYTES: Lane = (Track::new(pids::DRIVER, 1), "shuffle bytes");
/// Host wall-clock span of each stage's task phase, beside the pool's lanes.
const PIPELINE: Lane = (Track::new(pids::POOL, 2), "pipeline stages");

/// Aggregates `(node, bytes)` pairs by node, dropping empty transfers;
/// sorted by node. The sums build in place at the front of the collected
/// pairs: each pair binary-searches the distinct nodes summed so far, so a
/// task costs its pairs times the log of the nodes it fetches from — no
/// sort of the pairs, and nothing per cluster node.
fn aggregate_fetches(pairs: impl IntoIterator<Item = (NodeId, u64)>) -> Vec<(NodeId, u64)> {
    // Collected whole, so an exact-size source allocates once (and a
    // vector is reused as it is).
    let mut v: Vec<(NodeId, u64)> = pairs.into_iter().collect();
    let mut summed = 0;
    for i in 0..v.len() {
        let (node, bytes) = v[i];
        if bytes == 0 {
            continue;
        }
        match v[..summed].binary_search_by_key(&node, |&(n, _)| n) {
            Ok(at) => v[at].1 += bytes,
            Err(at) => {
                // `summed <= i`: the slot was read already.
                v[summed] = (node, bytes);
                v[at..=summed].rotate_right(1);
                summed += 1;
            }
        }
    }
    v.truncate(summed);
    v
}

/// Lays the map tasks' writes out as a shuffle table: each task's records
/// become its row, and its runs go into a column-major index — the `P + 1`
/// column starts and the runs, map-task order within a column — built by
/// one counting sort over the runs, in time proportional to the runs plus
/// `partitions`.
fn index_runs(
    writes: Vec<MapWrite>,
    partitions: usize,
) -> (Vec<Mutex<Vec<Record>>>, Vec<usize>, Vec<ColumnRun>) {
    let mut col_start = vec![0usize; partitions + 1];
    for s in writes.iter().flat_map(|w| w.runs.spans()) {
        col_start[s.partition as usize] += 1;
    }
    // Each column's end; filling back to front turns it into its start.
    let mut acc = 0;
    for c in col_start.iter_mut() {
        acc += *c;
        *c = acc;
    }
    let mut runs = vec![ColumnRun::default(); acc];
    assert!(
        u32::try_from(writes.len()).is_ok(),
        "fewer than 2^32 map tasks"
    );
    for (m, w) in writes.iter().enumerate().rev() {
        for s in w.runs.spans().iter().rev() {
            let at = &mut col_start[s.partition as usize];
            *at -= 1;
            runs[*at] = ColumnRun {
                map: m as u32,
                start: s.start,
                end: s.end,
                bytes: s.bytes,
            };
        }
    }
    let rows = writes
        .into_iter()
        .map(|w| Mutex::new(w.runs.records))
        .collect();
    (rows, col_start, runs)
}

/// The plan stage being executed and its identifiers, shared by every
/// phase of [`Context::exec_stage`].
struct StageCtx<'p> {
    plan: &'p Plan,
    plan_idx: usize,
    /// Global stage id (unique across jobs within a context).
    gid: usize,
    job_id: usize,
    /// The job's action keeps none of its result, only counts it.
    count_only: bool,
    num_tasks: usize,
    /// Scheme the stage's root was shuffled under, if it reads a shuffle.
    root_scheme: Option<PartitionerSpec>,
}

impl StageCtx<'_> {
    fn stage(&self) -> &PlanStage {
        &self.plan.stages[self.plan_idx]
    }
}

/// The virtual-side view of a stage's inputs (see
/// [`Context::resolve_inputs`]).
#[derive(Default)]
struct StageReads {
    /// Per task, the read half of its spec: fetches, fetch chunks, local
    /// reads, and where it would like to run.
    tasks: Vec<TaskSpec>,
    parents_gids: Vec<usize>,
    /// Cached RDDs consumed by this stage, for lineage ref-counting.
    cached_reads: Vec<Rdd>,
}

impl ShuffleData {
    /// Reduce partition `col`'s runs, in map-task order.
    pub(super) fn column(&self, col: usize) -> &[ColumnRun] {
        &self.runs[self.col_start[col]..self.col_start[col + 1]]
    }

    /// What reduce partition `col` fetches: bytes per producer node, one
    /// chunk per map task with data for it.
    fn read_of(&self, col: usize) -> TaskSpec {
        let runs = self.column(col);
        TaskSpec {
            fetches: aggregate_fetches(runs.iter().map(|r| (self.nodes[r.map as usize], r.bytes))),
            fetch_chunks: runs.len(),
            ..TaskSpec::default()
        }
    }

    /// Bytes written per reduce partition, in partition order: one pass
    /// over the column starts and the runs.
    pub(super) fn column_bytes(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.col_start.len() - 1).map(|c| self.column(c).iter().map(|r| r.bytes).sum())
    }

    /// The map outputs that died with `node`: their task indices, and the
    /// specs that recompute them off `node`. None without a fault plan,
    /// which retains no specs.
    pub(super) fn lost_to(&self, node: NodeId) -> (Vec<usize>, Vec<TaskSpec>) {
        let lost: Vec<usize> = (0..self.specs.len())
            .filter(|&m| self.nodes[m] == node)
            .collect();
        let unpinned = |m: &usize| TaskSpec {
            pinned_node: self.specs[*m].pinned_node.filter(|&n| n != node),
            ..self.specs[*m].clone()
        };
        let specs = lost.iter().map(unpinned).collect();
        (lost, specs)
    }

    /// Records where the recomputed map outputs `lost` now live, in order.
    pub(super) fn rehome(&mut self, lost: &[usize], homes: impl Iterator<Item = NodeId>) {
        for (&m, home) in lost.iter().zip(homes) {
            self.nodes[m] = home;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::dataplane::MapWrite;
    use super::super::fixture::{sorted, sum, test_options, word_records};
    use super::super::EngineOptions;
    use super::{aggregate_fetches, index_runs, Context};
    use crate::metrics::StageKind;
    use crate::ops::Emit;
    use crate::partitioner::{build_partitioner, HashPartitioner, PartitionerSpec};
    use crate::pool::{lock, WorkerPool};
    use crate::record::{Key, Record, Value};
    use crate::shuffle::{lay_out, TaskArena};
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex};

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

    /// Shuffle bookkeeping in proportion to the runs that exist: at
    /// P = 100 000 and 3 records per map task, a task lists at most 3 runs
    /// and the whole shuffle keeps one `P + 1` column-start vector beside
    /// them. Neither the table nor a task's output declares a field of one
    /// entry per partition per map task.
    #[test]
    fn shuffle_bookkeeping_grows_with_the_runs_not_with_p() {
        const P: usize = 100_000;
        let (maps, partitioner) = (8, HashPartitioner::new(P));
        let arena = &mut TaskArena::default();
        // Every map task writes the same 3 keys, so 3 columns hold a run
        // of every map task.
        let writes: Vec<MapWrite> = (0..maps)
            .map(|m| {
                let records = (0..3).map(|k| Record::new(Key::Int(k), Value::Int(m)));
                let runs = lay_out(records.collect(), &partitioner, arena);
                assert!(runs.spans().len() <= 3, "map {m}: {:?}", runs.spans());
                MapWrite { runs, cost: 0.0 }
            })
            .collect();
        let (rows, col_start, runs) = index_runs(writes, P);
        assert_eq!(rows.len(), maps as usize);
        assert_eq!(col_start.len(), P + 1);
        assert_eq!(
            runs.len(),
            3 * maps as usize,
            "3 keys a task, 3 runs a task"
        );
        let columns: Vec<&[super::ColumnRun]> = (0..P)
            .map(|c| &runs[col_start[c]..col_start[c + 1]])
            .filter(|column| !column.is_empty())
            .collect();
        assert_eq!(columns.len(), 3);
        for column in columns {
            let order: Vec<u32> = column.iter().map(|r| r.map).collect();
            assert_eq!(order, (0..maps as u32).collect::<Vec<_>>(), "map order");
        }

        let definition = |source: &str, header: &str| -> String {
            let start = source.find(header).expect("the struct is defined");
            let end = start + source[start..].find("\n}\n").expect("and closed");
            source[start..end].to_string()
        };
        let per_map_table = concat!("Vec<", "Vec<");
        let table = definition(include_str!("stage.rs"), "pub(super) struct ShuffleData {");
        assert!(!table.contains(per_map_table), "a dense table:\n{table}");
        let per_partition = [concat!("Vec<", "usize>"), concat!("Vec<", "u64>")];
        let task = definition(include_str!("../shuffle.rs"), "pub struct TaskRuns {");
        for field in per_partition {
            assert!(!task.contains(field), "a per-partition field:\n{task}");
        }
    }

    /// The first-seen fold the reference uses: a linear scan, no index.
    fn fold_by_scan(records: &[Record]) -> (Vec<Record>, u64) {
        let (mut kept, mut folds) = (Vec::<Record>::new(), 0);
        for r in records {
            match kept.iter_mut().find(|k| k.key == r.key) {
                Some(k) => {
                    k.value = Value::Int(k.value.as_int() + r.value.as_int());
                    folds += 1;
                }
                None => kept.push(r.clone()),
            }
        }
        (kept, folds)
    }

    /// A range `reduce_by_key` at P > 1 with a map-side combine, against
    /// its definition: each task's pre-combine output collected, a
    /// `Reservoir` per task filled from it with the task's seed, the bounds
    /// built from the samples in task order, then the fold, then the
    /// lay-out. The write samples the stream it folds, not the survivors;
    /// holds only the survivors until the bounds exist; and lays them out
    /// under those bounds — task by task through the pieces `run_tasks`
    /// runs, and for the whole job through a `Context`.
    #[test]
    fn a_range_combine_write_samples_then_folds_then_lays_out() {
        use super::super::dataplane::{compute_task, ShuffleWriter, StageInput, TaskId};
        use crate::record::batch_size;
        const M: usize = 4;
        let p = PartitionerSpec::range(5);
        let data: Vec<Record> = (0..600)
            .map(|i| Record::new(Key::Int((i * 37) % 97), Value::Int(i)))
            .collect();
        let fan = |r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() % 7));
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(data.clone(), M, "src");
        let mapped = ctx.map(src, Arc::new(fan), 1e-6, "fan");
        let reduced = ctx.reduce_by_key(mapped, sum(), Some(p), 2e-6, "sum");

        // The reference, task by task. Job 0's map stage is plan stage 0.
        let seed = 0xC0;
        let cap = (20 * p.partitions).div_ceil(M).max(8);
        let mut reference = Vec::new();
        for i in 0..M {
            let slice = &data[i * data.len() / M..(i + 1) * data.len() / M];
            let produced: Vec<Record> = slice.iter().map(fan).collect();
            let task_seed = seed ^ ((i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            let mut sample = numeric::Reservoir::new(cap, task_seed);
            produced.iter().for_each(|r| sample.offer(r.key.clone()));
            let (survivors, folds) = fold_by_scan(&produced);
            reference.push((produced.len() as u64, sample.into_items(), survivors, folds));
        }
        let keys: Vec<Key> = reference.iter().flat_map(|t| t.1.clone()).collect();
        let bounds = build_partitioner(p, keys.iter(), seed);
        let runs_of = |survivors: &[Record]| -> Vec<Vec<Record>> {
            (0..p.partitions)
                .map(|b| {
                    let sent = survivors.iter().filter(|r| bounds.partition(&r.key) == b);
                    sent.cloned().collect()
                })
                .collect()
        };
        assert!(reference.iter().all(|t| t.3 > 0), "every task folds");
        assert!(
            reference.iter().all(|t| t.0 as usize > cap),
            "every reservoir replaces"
        );

        // The write, task by task.
        let writer = ShuffleWriter {
            spec: p,
            combine: Some(sum()),
            combine_cost: 2e-6,
            seed,
        };
        let (input, arena) = (Arc::new(data), &mut TaskArena::default());
        let mut held = Vec::new();
        for (i, (produced, sample, survivors, folds)) in reference.iter().enumerate() {
            let task = TaskId { index: i, of: M };
            let (out, folded) = writer.fold(task, arena, |task, sink| {
                let input = StageInput::Slice(&input);
                compute_task(ctx.graph(), &input, &[mapped], task, None, sink)
            });
            assert_eq!(out.out_records, *produced, "task {i}");
            assert_eq!(&folded.sample, sample, "task {i} samples what it produced");
            assert_eq!(&folded.survivors, survivors, "task {i} holds its survivors");
            assert_eq!(folded.folds, *folds, "task {i}");
            held.push(folded);
        }
        let keys: Vec<Key> = held.iter().flat_map(|f| f.sample.clone()).collect();
        let built = build_partitioner(p, keys.iter(), seed);
        for k in (0..97).map(Key::Int) {
            assert_eq!(built.partition(&k), bounds.partition(&k), "{k:?}");
        }
        let mut write_bytes = 0;
        let mut columns: Vec<Vec<Record>> = vec![Vec::new(); p.partitions];
        for (i, folded) in held.into_iter().enumerate() {
            let want = runs_of(&reference[i].2);
            let runs = writer.write(folded, &*built, arena).runs.into_buckets();
            let got: Vec<Vec<Record>> = runs.buckets.iter().map(|b| b.to_vec()).collect();
            assert_eq!(got, want, "task {i}'s runs");
            for (b, run) in want.iter().enumerate() {
                assert_eq!(runs.bytes[b], batch_size(run), "task {i} run {b}");
                write_bytes += runs.bytes[b];
                columns[b].extend(run.iter().cloned());
            }
        }

        // The whole job: the same write, and each reduce partition the
        // fold of its column in map-task order, in partition order.
        let merged: Vec<Record> = columns.iter().flat_map(|c| fold_by_scan(c).0).collect();
        assert_eq!(ctx.collect(reduced, "range-sum"), merged);
        let map_stage = &ctx.jobs()[0].stages[0];
        assert_eq!(map_stage.shuffle_write_bytes, write_bytes);
        assert_eq!(map_stage.output_records, 600);
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
            Arc::new(|r: &Record, out: &mut dyn Emit| {
                out.lend(r);
                out.lend(r);
            }),
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

    /// The definition `aggregate_fetches` replaced: collect, drop empty
    /// transfers, sort by node, merge equal nodes.
    fn sorted_fetches(pairs: &[(usize, u64)]) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = pairs.iter().copied().filter(|&(_, b)| b > 0).collect();
        v.sort_unstable_by_key(|&(node, _)| node);
        v.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        v
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Summing in place gives what sorting gave, for unsorted and
        /// repeated nodes, empty transfers, and node ids up to 999.
        #[test]
        fn fetches_aggregate_as_the_sort_did(
            draws in proptest::collection::vec((0usize..1000, 0u64..4, 0u64..1_000_000), 0..80),
            nodes in 1usize..1000,
        ) {
            let pairs: Vec<(usize, u64)> = draws
                .iter()
                .map(|&(n, empty, b)| (n % nodes, if empty == 0 { 0 } else { b }))
                .collect();
            proptest::prop_assert_eq!(aggregate_fetches(pairs.clone()), sorted_fetches(&pairs));
            let iter = pairs.iter().copied();
            proptest::prop_assert_eq!(aggregate_fetches(iter), sorted_fetches(&pairs));
        }
    }
}
