//! The books under failure: the cache ledger — which cached partitions
//! exist, on which nodes, in memory or spilled — with every movement of
//! one, and the fault plan's events and the recovery they trigger.

use super::context::{Context, Lane};
use super::dataplane::{CachedParts, Capture, TaskOut};
use super::stage::ShuffleData;
use crate::partitioner::PartitionerSpec;
use crate::rdd::{Rdd, RddGraph};
use crate::record::Record;
use crate::stage::{MaterializedInfo, Plan, PlanStage, StageOutput, StageRoot};
use faults::{FaultCounters, FaultPlan, NodeLoss, Straggler};
use memman::{Eviction, MemCounters, MemoryManager};
use simcluster::{NodeId, StageTiming, TaskSpec};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use trace::{pids, Clock, Track};

/// Spills, as the ledger decides them.
const MEMORY: Lane = (Track::new(pids::DRIVER, 2), "memory manager");
/// Fault events as they are applied, and the recovery they trigger.
pub(super) const FAULTS: Lane = (Track::new(pids::DRIVER, 3), "fault recovery");

/// Live state of a fault plan over a run: the not-yet-applied timed
/// events, which nodes have been lost, and what the recovery machinery
/// has done so far.
pub(super) struct FaultState {
    pub(super) plan: FaultPlan,
    /// Node-loss events sorted by `(at, node)`; `next_loss` indexes the
    /// first event still pending. Sorting makes application order
    /// independent of the order events were written in the plan file.
    losses: Vec<NodeLoss>,
    next_loss: usize,
    /// Slow-node events sorted by `(at, node)`.
    stragglers: Vec<Straggler>,
    next_straggler: usize,
    pub(super) counters: FaultCounters,
}

impl FaultState {
    pub(super) fn new(plan: FaultPlan) -> Self {
        fn by_time<T: Clone>(events: &[T], key: impl Fn(&T) -> (f64, NodeId)) -> Vec<T> {
            let mut sorted = events.to_vec();
            sorted.sort_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite event times"));
            sorted
        }
        let losses = by_time(&plan.node_loss, |l| (l.at, l.node));
        let stragglers = by_time(&plan.stragglers, |s| (s.at, s.node));
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

/// A cached RDD as the stage that computed it left it: the partitions,
/// their encoded sizes, the node each lives on, and the partitioning they
/// are known to have.
struct Materialized {
    parts: Vec<Arc<Vec<Record>>>,
    /// `sizes[i]` is `parts[i]`'s encoded size, as its capturing task
    /// measured it; every read, spill and re-home books this number.
    sizes: Vec<u64>,
    homes: Vec<NodeId>,
    partitioning: Option<PartitionerSpec>,
    producer_stage: usize,
}

/// The cache ledger: each cached RDD's partitions and homes, the memory
/// manager's book of what is resident where and what is spilled, and the
/// cached reads served per RDD (for LRC's remaining references). Only
/// this module changes it, and every change that moves a partition keeps
/// the spill files in `store` and the simulator's residency in step.
pub(super) struct Ledger {
    /// Ordered by RDD id, so a walk over it is deterministic.
    materialized: BTreeMap<Rdd, Materialized>,
    mem: MemoryManager,
    reads_done: HashMap<Rdd, usize>,
}

impl Ledger {
    pub(super) fn new(num_nodes: usize, executor_mem: Option<u64>) -> Self {
        Ledger {
            materialized: BTreeMap::new(),
            mem: MemoryManager::new(num_nodes, executor_mem),
            reads_done: HashMap::new(),
        }
    }

    /// Whether `rdd` is cached.
    pub(super) fn holds(&self, rdd: Rdd) -> bool {
        self.materialized.contains_key(&rdd)
    }

    /// Cached `rdd`'s partitions and their sizes, and the global id of
    /// the stage that computed them.
    pub(super) fn cached(&self, rdd: Rdd) -> (CachedParts<'_>, usize) {
        let mat = &self.materialized[&rdd];
        let parts = CachedParts {
            parts: &mat.parts,
            sizes: &mat.sizes,
        };
        (parts, mat.producer_stage)
    }

    /// What the planner knows of each cached RDD.
    pub(super) fn infos(&self) -> HashMap<Rdd, MaterializedInfo> {
        let info = |m: &Materialized| MaterializedInfo {
            partitions: m.parts.len(),
            partitioning: m.partitioning,
        };
        self.materialized
            .iter()
            .map(|(&r, m)| (r, info(m)))
            .collect()
    }

    /// How partition `i` of cached `rdd` is read: from its home node's
    /// memory, or — once the entry is spilled — from that node's local
    /// disk.
    pub(super) fn read_of(&self, rdd: Rdd, i: usize) -> TaskSpec {
        let mat = &self.materialized[&rdd];
        let bytes = mat.sizes[i];
        let mut t = TaskSpec {
            fetch_chunks: usize::from(!mat.parts[i].is_empty()),
            ..TaskSpec::default()
        };
        if self.mem.is_spilled(rdd.0 as u64) {
            t.local_read_bytes = bytes;
        } else {
            t.fetches = vec![(mat.homes[i], bytes)];
        }
        t
    }

    /// How task `i` of a stage rooted at cached `rdd` reads its partition:
    /// as [`Ledger::read_of`], preferring the home node, with one chunk
    /// per memory read — a spilled partition is local disk I/O (feeding
    /// the Fig. 14 transaction counters), not a memory-resident fetch.
    pub(super) fn scan_of(&self, rdd: Rdd, i: usize) -> TaskSpec {
        let mut t = self.read_of(rdd, i);
        t.fetch_chunks = usize::from(!t.fetches.is_empty());
        t.preferred_nodes = vec![self.materialized[&rdd].homes[i]];
        t
    }

    /// Counts a map-side shuffle spill of `bytes` (a combine buffer larger
    /// than the task's execution-memory share); no cached partition moves.
    pub(super) fn note_shuffle_spill(&mut self, bytes: u64) {
        self.mem.note_shuffle_spill(bytes);
    }
}

impl Context {
    // ------------------------------------------------------------------
    // The cache ledger: every movement of a cached partition
    // ------------------------------------------------------------------

    /// Releases a cached RDD: drops its pin reference and frees the
    /// materialization (memory residency, storage-region accounting, and
    /// any spill files) immediately. A later read recomputes from lineage.
    pub fn uncache(&mut self, rdd: Rdd) {
        self.graph.set_uncached(rdd);
        let Some(mat) = self.ledger.materialized.remove(&rdd) else {
            return;
        };
        let id = rdd.0 as u64;
        if self.ledger.mem.is_spilled(id) {
            for i in 0..mat.parts.len() {
                self.store.delete_file(&spill_name(rdd, i));
            }
        }
        self.book(|mem, _| {
            mem.release(id);
            Vec::new()
        });
    }

    /// Snapshot of the memory-manager counters (evictions, spills,
    /// rereads, released entries).
    pub fn mem_counters(&self) -> MemCounters {
        self.ledger.mem.counters()
    }

    /// Books the cache captures of a stage's tasks, each RDD whole or not
    /// at all, partition `i` on `homes[i]`, in RDD-id order: under a
    /// memory budget the insertion order decides who evicts whom, so
    /// hash-map order would leak into results. The manager spills LRC
    /// victims to make room or, when none can be made, the capture itself
    /// on arrival — a transfer of its own after the victims'.
    pub(super) fn capture(
        &mut self,
        plan: &Plan,
        stage: &PlanStage,
        producer_stage: usize,
        outs: &[TaskOut],
        homes: &[NodeId],
    ) {
        let root_rdd = stage.root_rdd();
        let root_part = match &stage.root {
            StageRoot::Source(_) => None,
            StageRoot::ShuffleRead { wide, .. } | StageRoot::JoinRead { wide, .. } => {
                plan.schemes.get(wide).copied()
            }
            StageRoot::CachedRead(rdd) => self.ledger.materialized[rdd].partitioning,
        };
        let mut capture_map: BTreeMap<Rdd, Vec<&Capture>> = BTreeMap::new();
        for out in outs {
            for c in &out.captures {
                capture_map.entry(c.rdd).or_default().push(c);
            }
        }
        for (rdd, captured) in capture_map {
            if captured.len() != outs.len() || self.ledger.holds(rdd) {
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
                *self.ledger.reads_done.entry(rdd).or_insert(0) += 1;
            }
            let mut per_node = vec![0u64; self.options.cluster.num_nodes()];
            for (c, &home) in captured.iter().zip(homes) {
                per_node[home] += c.bytes;
            }
            let entry = Materialized {
                parts: captured.iter().map(|c| Arc::clone(&c.part)).collect(),
                sizes: captured.iter().map(|c| c.bytes).collect(),
                homes: homes.to_vec(),
                partitioning,
                producer_stage,
            };
            self.ledger.materialized.insert(rdd, entry);
            let id = rdd.0 as u64;
            self.book(|mem, refs| mem.insert(id, per_node.clone(), refs));
            if self.ledger.mem.is_spilled(id) {
                self.write_spills(&[Eviction {
                    id,
                    bytes: per_node,
                }]);
            }
        }
    }

    /// Accounts a stage's cached reads: each consuming stage burns one
    /// lineage reference, bumps recency, and — for spilled entries — pays
    /// the reread through the spill files.
    pub(super) fn account_cached_reads(&mut self, cached_reads: &[Rdd]) {
        for rdd in cached_reads {
            *self.ledger.reads_done.entry(*rdd).or_insert(0) += 1;
            let id = rdd.0 as u64;
            self.ledger.mem.touch(id);
            if self.ledger.mem.is_spilled(id) {
                self.ledger.mem.reread(id);
                for i in 0..self.ledger.materialized[rdd].parts.len() {
                    self.store.read_file(&spill_name(*rdd, i));
                }
            }
        }
    }

    /// Reserves a stage's execution working set — per node, the largest
    /// task `timing` placed there — before its captures ask for room:
    /// execution borrows from storage, so cached entries may spill.
    pub(super) fn reserve_execution(&mut self, specs: &[TaskSpec], timing: &StageTiming) {
        let mut per_node = vec![0u64; self.options.cluster.num_nodes()];
        for (spec, t) in specs.iter().zip(&timing.tasks) {
            per_node[t.node] = per_node[t.node].max(spec.memory_bytes);
        }
        self.book(|mem, refs| mem.set_execution_reservation(&per_node, refs));
    }

    /// Moves the cached partitions that lived on lost `node` to
    /// `survivors`, round-robin in RDD-id order, at the cost of a network
    /// copy plus a replica disk read (their host-side `Arc`s never left
    /// driver memory, so results are untouched). A survivor pushed over
    /// its budget spills its LRC victims, and a partition that was on the
    /// lost node's disk lands on its new home's disk.
    fn rehome_cached(&mut self, node: NodeId, survivors: &[NodeId]) {
        let num_nodes = self.options.cluster.num_nodes();
        let mut replica_read = vec![0u64; num_nodes];
        let mut respilled = vec![0u64; num_nodes];
        let mut ledger_moves: Vec<(u64, NodeId, u64)> = Vec::new();
        let mut transfers: Vec<(NodeId, NodeId, u64)> = Vec::new();
        for (&rdd, mat) in self.ledger.materialized.iter_mut() {
            let spilled = self.ledger.mem.is_spilled(rdd.0 as u64);
            for (i, home) in mat.homes.iter_mut().enumerate() {
                if *home != node {
                    continue;
                }
                let k = ledger_moves.len();
                let (new_home, bytes) = (survivors[k % survivors.len()], mat.sizes[i]);
                *home = new_home;
                if spilled {
                    self.store
                        .create_file_on(&spill_name(rdd, i), bytes, new_home);
                    respilled[new_home] += bytes;
                }
                ledger_moves.push((rdd.0 as u64, new_home, bytes));
                replica_read[new_home] += bytes;
                // The surviving replica also crosses the network to its new
                // home; those transfers are charged as contended flows.
                // Source selection is deterministic: the survivor after the
                // new home in id order holds the replica (with a single
                // survivor the copy is node-local and free).
                transfers.push((survivors[(k + 1) % survivors.len()], new_home, bytes));
            }
        }
        if ledger_moves.is_empty() {
            return;
        }
        let (moved, moved_bytes) = (ledger_moves.len(), replica_read.iter().sum::<u64>());
        self.sim.charge_replica_transfers(&transfers);
        self.sim.charge_disk_io(&replica_read, false);
        self.sim.charge_disk_io(&respilled, true);
        self.book(|mem, refs| mem.rehome(node, &ledger_moves, refs));
        let fs = self.faults.as_mut().expect("fault state present");
        fs.counters.replica_rehomed_partitions += moved as u64;
        fs.counters.replica_read_bytes += moved_bytes;
        self.emit(FAULTS, "rehome", || {
            (
                format!("re-home {moved} cached partitions"),
                vec![
                    ("node", node.into()),
                    ("partitions", moved.into()),
                    ("bytes", moved_bytes.into()),
                ],
            )
        });
    }

    /// Books one movement in the memory manager: `op` returns the entries
    /// the manager pushed to disk to make room; their spill files are
    /// written and the simulator's residency becomes the manager's. `op`
    /// is handed the remaining-reference lookup, which the manager calls
    /// only while it ranks victims: a run that never overflows never
    /// walks the graph.
    fn book(&mut self, op: impl FnOnce(&mut MemoryManager, memman::RefsOf) -> Vec<Eviction>) {
        let (graph, reads_done) = (&self.graph, &self.ledger.reads_done);
        let evicted = op(&mut self.ledger.mem, &|id| {
            remaining_refs(graph, reads_done, Rdd(id as usize))
        });
        self.write_spills(&evicted);
        self.sim.set_resident(self.ledger.mem.storage_used());
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
            let mat = &self.ledger.materialized[&rdd];
            for (i, (&bytes, &home)) in mat.sizes.iter().zip(&mat.homes).enumerate() {
                self.store.create_file_on(&spill_name(rdd, i), bytes, home);
            }
            for (w, b) in spill_write.iter_mut().zip(&ev.bytes) {
                *w += b;
            }
            self.emit(MEMORY, "spill", || {
                let bytes: u64 = ev.bytes.iter().sum();
                let refs = remaining_refs(&self.graph, &self.ledger.reads_done, rdd);
                (
                    format!("spill r{}", ev.id),
                    vec![("bytes", bytes.into()), ("refs", refs.into())],
                )
            });
        }
        self.sim.charge_disk_io(&spill_write, true);
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    /// Applies every fault-plan event whose virtual time has passed:
    /// slow-node multipliers and node losses. A lost node is blacklisted
    /// in the simulation — subsequent stages schedule around it — and its
    /// data is recovered via [`Context::recover_lost_node`].
    pub(super) fn apply_due_faults(&mut self, shuffles: &mut [Option<ShuffleData>]) {
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
            self.emit(FAULTS, "straggler", || {
                (
                    format!("slow node {}", s.node),
                    vec![("node", s.node.into()), ("factor", s.factor.into())],
                )
            });
        }
        for node in lost {
            self.emit(FAULTS, "node-loss", || {
                (format!("node {node} lost"), vec![("node", node.into())])
            });
            self.recover_lost_node(node, shuffles);
        }
    }

    /// Recovers the data that died with `node`, replicas first, recompute
    /// second: cached partitions re-home to surviving nodes (a ledger
    /// movement like any other, [`Context::rehome_cached`]), while lost
    /// shuffle map outputs — which have no replicas — are recomputed
    /// through lineage by re-running their retained task specs on the
    /// surviving topology. Only placements and the virtual clock change.
    fn recover_lost_node(&mut self, node: NodeId, shuffles: &mut [Option<ShuffleData>]) {
        // Survivors ordered by node id: re-home targets round-robin over
        // this list so recovery is deterministic regardless of map
        // iteration order and balanced across the shrunk cluster. The
        // simulator refuses to fail its last node, so there is one.
        let down = self.sim.failed_nodes();
        let survivors: Vec<NodeId> = (0..self.options.cluster.num_nodes())
            .filter(|&n| !down[n])
            .collect();
        self.rehome_cached(node, &survivors);

        // Lost shuffle map outputs: recompute only the missing partitions.
        let mut total_recomputed = 0u64;
        for data in shuffles.iter_mut().flatten() {
            let (lost, respecs) = data.lost_to(node);
            if lost.is_empty() {
                continue;
            }
            let timing = self.sim.run_stage(&respecs);
            data.rehome(&lost, timing.tasks.iter().map(|t| t.node));
            total_recomputed += lost.len() as u64;
            let producer = data.producer_gid;
            if let Some(track) = self.lane(FAULTS) {
                self.options.trace.span(
                    Clock::Virtual,
                    track,
                    format!("recompute s{producer}"),
                    "recompute",
                    timing.start,
                    timing.end,
                    vec![("stage", producer.into()), ("map_tasks", lost.len().into())],
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
    pub(super) fn inject_task_faults(
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

#[cfg(test)]
mod tests {
    use super::super::fixture::{sorted, sum, test_options, word_records};
    use super::super::EngineOptions;
    use super::*;
    use crate::metrics::StageKind;
    use crate::record::{Key, Record, Value};
    use std::sync::Arc;

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
    fn uncaching_a_spilled_entry_deletes_its_spill_files() {
        let mut ctx = Context::new(EngineOptions {
            executor_mem: Some(1 << 10),
            ..test_options()
        });
        let src = ctx.parallelize(word_records(), 4, "src");
        let doubled = ctx.map(
            src,
            Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() * 2))),
            1e-7,
            "doubled",
        );
        ctx.cache(doubled);
        let cached = sorted(ctx.collect(doubled, "materialize"));
        let spill_files = |ctx: &Context| {
            (0..4)
                .filter(|&i| ctx.store().file_blocks(&spill_name(doubled, i)).is_some())
                .count()
        };
        assert_eq!(ctx.mem_counters().spills, 1, "1 KiB holds none of it");
        assert_eq!(spill_files(&ctx), 4, "one spill file per partition");

        ctx.uncache(doubled);
        assert_eq!(spill_files(&ctx), 0, "uncache deletes the spill files");
        assert_eq!(ctx.sim().resident_bytes(), &[0, 0, 0]);
        assert_eq!(ctx.mem_counters().released, 1);
        assert_eq!(sorted(ctx.collect(doubled, "reuse")), cached);
        let reuse = ctx.jobs().last().expect("two jobs ran");
        assert_eq!(reuse.stages[0].kind, StageKind::Source, "recomputed");
    }

    /// One owner for cached data: outside this file nothing in the
    /// executor names the ledger's maps, the memory manager or the spill
    /// files, so a cached partition moves only through a method here, and
    /// every such method keeps the spill files and the simulator's
    /// residency in step with the ledger.
    #[test]
    fn only_the_books_name_the_cache_ledger() {
        let banned = ["materialized", "reads_done", "MemoryManager", "spill_name"];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/exec");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).expect("the exec sources") {
            let path = entry.expect("a directory entry").path();
            if path.file_name().is_some_and(|f| f == "books.rs") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("a source file");
            for (n, line) in source.lines().enumerate() {
                for word in banned {
                    assert!(!line.contains(word), "{}:{}: {line}", path.display(), n + 1);
                }
            }
            checked += 1;
        }
        assert!(checked >= 6, "read {checked} sibling files of books.rs");
    }
}
